//! Replayed phases cost exactly what they cost when metered.
//!
//! The compress kernels' staging refill (V2 and V3), V3's sizing and
//! lane scan, and the warp decoder's group scan are priced once per shape
//! and replayed from the simulator's memo (`culzss_gpusim::replay`). The
//! compress kernels' match phase and the warp decoder's pass 1b replay
//! only their memory: their ops follow the data and still run per lane.
//! For each launch this suite compares, block by block and field by field
//! (floats by their bits), three runs:
//!
//! * an armed launch, which bypasses the memo and meters every access;
//! * a cold unarmed launch on a fresh simulator;
//! * a warm unarmed launch, after the same simulator ran other inputs
//!   whose blocks have the same shapes.
//!
//! The warm-up inputs are chosen to catch a key that is too coarse. For
//! compression they are other bytes of the same length. For decoding they
//! are the same chunks rebuilt as all-literal token streams: one with the
//! same token count (the same group-scan shape with a different
//! literal/match mix) and one with a token less wherever that keeps the
//! group count (the same group count with the scan buffer at the other
//! word parity).

use culzss::decompress;
use culzss::pipeline::BufferPool;
use culzss::{kernel_v2, v3, Culzss, CulzssParams, DecodeEngine, Version};
use culzss_datasets::Dataset;
use culzss_gpusim::exec::LaunchStats;
use culzss_gpusim::{BlockMetrics, DeviceSpec, GpuSim};
use culzss_lzss::container::Container;
use culzss_lzss::{format, LzssConfig, Token};

/// Uncompressed bytes per corpus input: six chunks.
const CORPUS_BYTES: usize = 6 * 4096;

/// Input lengths at the segment and chunk edges: empty, one byte, one
/// short of a segment and of a chunk, one past a chunk, an extension of
/// 20 lanes behind the first segment and a 20-byte last chunk (both
/// shorter than `max_match`).
const EDGE_SIZES: [usize; 7] = [0, 1, 127, 4095, 4097, 128 + 20, 2 * 4096 + 20];

fn sim() -> GpuSim {
    GpuSim::new(DeviceSpec::gtx480()).with_workers(2)
}

/// Every field of a block's metrics, floats by their bits.
fn fields(m: &BlockMetrics) -> [u64; 11] {
    [
        m.warp_issue_ops.to_bits(),
        m.thread_ops,
        m.global_transactions.to_bits(),
        m.global_bytes,
        m.shared_cycles.to_bits(),
        m.shared_accesses,
        m.cached_accesses,
        m.barriers,
        m.blocks,
        m.shared_mem_used as u64,
        m.block_dim as u64,
    ]
}

fn assert_same_blocks(what: &str, run: &str, exact: &LaunchStats, replayed: &LaunchStats) {
    assert_eq!(exact.per_block.len(), replayed.per_block.len(), "{what}: {run} block count");
    for (block, (e, r)) in exact.per_block.iter().zip(&replayed.per_block).enumerate() {
        assert_eq!(
            fields(e),
            fields(r),
            "{what}: {run} block {block}\nexact {e:?}\nreplayed {r:?}"
        );
    }
    assert_eq!(exact.cost.cycles.to_bits(), replayed.cost.cycles.to_bits(), "{what}: {run} cycles");
}

/// Runs `launch` armed, cold, and warm after `warm_ups`, and checks the
/// three agree block by block.
fn assert_replay_exact<I>(
    what: &str,
    input: &I,
    warm_ups: &[I],
    launch: impl Fn(&GpuSim, &I) -> LaunchStats,
) {
    let exact = launch(&sim().with_sanitizer(), input);
    assert!(exact.sanitizer.is_some(), "{what}: the armed launch reports");
    let cold = sim();
    assert_same_blocks(what, "cold", &exact, &launch(&cold, input));
    let warm = sim();
    for other in warm_ups {
        launch(&warm, other);
    }
    assert_same_blocks(what, "warm", &exact, &launch(&warm, input));
    if !exact.per_block.is_empty() {
        let replays: u64 = warm.replay_stats().phases.iter().map(|p| p.hits).sum();
        assert!(replays > 0, "{what}: the warm launch replayed nothing");
    }
}

/// Corpus inputs and edge-size inputs, each with a different input of the
/// same length to warm the memo with.
fn compress_inputs() -> Vec<(String, Vec<u8>, Vec<u8>)> {
    let mut inputs: Vec<_> = Dataset::ALL
        .iter()
        .enumerate()
        .map(|(i, dataset)| {
            let other = Dataset::ALL[(i + 1) % Dataset::ALL.len()];
            (
                format!("{dataset:?}"),
                dataset.generate(CORPUS_BYTES, 2011),
                other.generate(CORPUS_BYTES, 7),
            )
        })
        .collect();
    for size in EDGE_SIZES {
        inputs.push((
            format!("{size} bytes"),
            Dataset::CFiles.generate(size, 3),
            Dataset::HighlyCompressible.generate(size, 4),
        ));
    }
    inputs
}

fn compress_params() -> Vec<(&'static str, CulzssParams)> {
    let unshared = |mut params: CulzssParams| {
        params.use_shared_memory = false;
        params
    };
    vec![
        ("V2", CulzssParams::v2()),
        ("V2 without shared staging", unshared(CulzssParams::v2())),
        ("V3", CulzssParams::v3()),
        ("V3 without shared staging", unshared(CulzssParams::v3())),
    ]
}

fn compress(sim: &GpuSim, input: &[u8], params: &CulzssParams) -> LaunchStats {
    match params.version {
        Version::V3 => v3::run_pooled(sim, input, params, &BufferPool::new()).unwrap().1,
        _ => kernel_v2::run(sim, input, params).unwrap().1,
    }
}

#[test]
fn compress_launches_replay_exactly() {
    for (engine, params) in compress_params() {
        let launch = |sim: &GpuSim, input: &Vec<u8>| compress(sim, input, &params);
        for (name, input, other) in compress_inputs() {
            assert_replay_exact(&format!("{engine}, {name}"), &input, &[other], launch);
        }
    }
}

/// The match phase's key has to hold everything that places its
/// accesses, because one memo serves every launch on a simulator and its
/// clones. So V2 and then V3, each with and without shared staging, run
/// on one simulator under each engine's default parameters and under a
/// second set with another window, another `max_match` and an odd chunk
/// size. Odd chunk sizes start chunks at odd offsets, where V2's second
/// result array's alignment no longer follows from the first's. The
/// input lengths differ modulo the 128-byte transaction. Every launch
/// must match an armed one block by block, cold and then warm.
#[test]
fn one_memo_serves_every_engine_and_parameter_set() {
    let second = |mut params: CulzssParams| {
        (params.window_size, params.max_match, params.chunk_size) = (64, 10, 1003);
        params
    };
    let mut runs = Vec::new();
    for (set, pick) in [("default", None), ("second set", Some(second))] {
        for (engine, params) in compress_params() {
            let params = pick.map_or(params.clone(), |pick| pick(params));
            for len in [4096, 6001, 8256, 8212] {
                let input = Dataset::CFiles.generate(len, 5);
                let exact = compress(&sim().with_sanitizer(), &input, &params);
                runs.push((format!("{engine}, {set}, {len} bytes"), params.clone(), input, exact));
            }
        }
    }
    let shared = sim();
    for pass in ["cold", "warm"] {
        for (what, params, input, exact) in &runs {
            assert_same_blocks(what, pass, exact, &compress(&shared, input, params));
        }
    }
}

/// Capping the remaining length at `block_dim + max_match` keeps the
/// match phase to two shapes per chunk size: every segment with at least
/// that much left, and the chunk's last one.
#[test]
fn whole_segments_share_one_match_entry() {
    for (engine, params) in compress_params() {
        let sim = GpuSim::new(DeviceSpec::gtx480()).with_workers(1);
        compress(&sim, &Dataset::CFiles.generate(CORPUS_BYTES, 5), &params);
        let stats = sim.replay_stats();
        let phase = if params.version == Version::V3 { "v3.match" } else { "v2.match" };
        let matched = stats.phases.iter().find(|p| p.phase == phase).unwrap();
        assert_eq!((matched.entries, matched.misses), (2, 2), "{engine}");
    }
}

/// A parsed stream: its payload and chunk layout.
#[derive(Clone)]
struct Stream {
    payload: Vec<u8>,
    layout: Vec<(std::ops::Range<usize>, usize)>,
}

impl Stream {
    fn of(input: &[u8]) -> Self {
        let (bytes, _) = Culzss::new(Version::V2).compress(input).unwrap();
        let (container, offset) = Container::parse(&bytes).unwrap();
        Self { payload: bytes[offset..].to_vec(), layout: container.chunk_layout() }
    }

    /// The stream with each chunk's tokens replaced by `rebuild(tokens)`.
    fn rebuilt(&self, config: &LzssConfig, rebuild: impl Fn(Vec<Token>) -> Vec<Token>) -> Self {
        let mut out = Self { payload: Vec::new(), layout: Vec::new() };
        for (range, len) in &self.layout {
            let tokens = format::decode(&self.payload[range.clone()], config, *len).unwrap();
            let tokens = rebuild(tokens);
            let start = out.payload.len();
            format::encode_into(&tokens, config, &mut out.payload);
            let covered = tokens.iter().map(Token::coverage).sum();
            out.layout.push((start..out.payload.len(), covered));
        }
        out
    }
}

/// Every match replaced by a literal: the same token count, another
/// literal/match mix.
fn all_literals(tokens: Vec<Token>) -> Vec<Token> {
    tokens
        .into_iter()
        .map(|token| if token.is_match() { Token::Literal(b'm') } else { token })
        .collect()
}

/// [`all_literals`] with the last token dropped when the group count
/// stays the same, which moves the scan buffers by one 2-byte slot.
fn other_parity(tokens: Vec<Token>) -> Vec<Token> {
    let mut tokens = all_literals(tokens);
    if tokens.len() % 8 != 1 {
        tokens.pop();
    }
    tokens
}

#[test]
fn warp_decode_launches_replay_exactly() {
    let params = CulzssParams::v2();
    let config = params.lzss_config();
    let launch = |sim: &GpuSim, stream: &Stream| {
        decompress::run_with_engine(
            sim,
            &stream.payload,
            &stream.layout,
            &config,
            params.threads_per_block,
            DecodeEngine::WarpParallel,
        )
        .unwrap()
        .1
    };
    for (name, input, _) in compress_inputs() {
        let stream = Stream::of(&input);
        // The parity twin runs first, so that a key without the parity
        // would hand the input the twin's scan.
        let warm_ups =
            [stream.rebuilt(&config, other_parity), stream.rebuilt(&config, all_literals)];
        assert_replay_exact(&format!("warp decode, {name}"), &stream, &warm_ups, launch);
    }
}

#[test]
fn the_memo_fits_its_budget_after_every_shape() {
    use culzss_gpusim::replay::REPLAY_MEMO_BYTES;
    // Every group count of a 4 KiB chunk at both parities, plus the
    // compress shapes of every edge size: more shapes than the budget
    // holds, so the memo must stop growing at its bound.
    let params = CulzssParams::v2();
    let config = params.lzss_config();
    let sim = sim();
    for (_, input, _) in compress_inputs() {
        kernel_v2::run(&sim, &input, &params).unwrap();
        v3::run_pooled(&sim, &input, &CulzssParams::v3(), &BufferPool::new()).unwrap();
    }
    let mut payload = Vec::new();
    let mut layout = Vec::new();
    for n in 1..=4096usize {
        let tokens = vec![Token::Literal(b'x'); n];
        let start = payload.len();
        format::encode_into(&tokens, &config, &mut payload);
        layout.push((start..payload.len(), n));
    }
    decompress::run_with_engine(
        &sim,
        &payload,
        &layout,
        &config,
        params.threads_per_block,
        DecodeEngine::WarpParallel,
    )
    .unwrap();
    let stats = sim.replay_stats();
    assert!(stats.bytes <= REPLAY_MEMO_BYTES, "memo holds {} bytes", stats.bytes);
    let scan = stats.phases.iter().find(|p| p.phase == "warp.group_scan").unwrap();
    assert!(scan.entries >= 512, "only {} group-scan shapes stored", scan.entries);
}
