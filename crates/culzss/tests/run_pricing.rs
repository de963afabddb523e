//! The warp decoder's shared runs cost exactly what their accesses cost.
//!
//! Unarmed, the warp decoder logs each match copy, each group's pass 1d
//! offset stores and pass 1a's group stores as one run record
//! (`culzss_gpusim::SharedRun`), which the meter prices from the run's
//! arithmetic. An armed launch logs every access of every run. This suite
//! decodes each stream both ways and compares the launches block by
//! block and field by field, floats by their bits, on every corpus, at
//! the chunk and segment edge sizes, and on crafted token streams:
//!
//! * deep overlapping copies, whose distance is below their length, down
//!   to distance 1;
//! * lanes that hold several matches in one copy round;
//! * chunks in which every token after the first is a max-length match.

use culzss::{decompress, Culzss, CulzssParams, DecodeEngine, Version};
use culzss_datasets::Dataset;
use culzss_gpusim::exec::LaunchStats;
use culzss_gpusim::{BlockMetrics, DeviceSpec, GpuSim};
use culzss_lzss::container::Container;
use culzss_lzss::{format, token, LzssConfig, Token};

/// Uncompressed bytes per corpus input: six chunks.
const CORPUS_BYTES: usize = 6 * 4096;

/// Input lengths at the segment and chunk edges (those of
/// `phase_replay.rs`).
const EDGE_SIZES: [usize; 7] = [0, 1, 127, 4095, 4097, 128 + 20, 2 * 4096 + 20];

/// Bytes a crafted chunk covers.
const CHUNK: usize = 4096;

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

/// A parsed stream: its payload and chunk layout.
struct Stream {
    payload: Vec<u8>,
    layout: Vec<(std::ops::Range<usize>, usize)>,
}

impl Stream {
    /// The V2 container of `input`.
    fn compressed(input: &[u8]) -> Self {
        let (bytes, _) = Culzss::new(Version::V2).compress(input).unwrap();
        let (container, offset) = Container::parse(&bytes).unwrap();
        Self { payload: bytes[offset..].to_vec(), layout: container.chunk_layout() }
    }

    /// One chunk per token list.
    fn of_chunks(chunks: &[Vec<Token>], config: &LzssConfig) -> Self {
        let mut stream = Self { payload: Vec::new(), layout: Vec::new() };
        for tokens in chunks {
            let start = stream.payload.len();
            format::encode_into(tokens, config, &mut stream.payload);
            let covered = tokens.iter().map(Token::coverage).sum();
            stream.layout.push((start..stream.payload.len(), covered));
        }
        stream
    }

    fn decode(&self, sim: &GpuSim, config: &LzssConfig) -> (Vec<Vec<u8>>, LaunchStats) {
        decompress::run_with_engine(
            sim,
            &self.payload,
            &self.layout,
            config,
            CulzssParams::v2().threads_per_block,
            DecodeEngine::WarpParallel,
        )
        .unwrap()
    }
}

/// Decodes `stream` armed and unarmed, and unarmed again on the same
/// simulator, and asserts every launch agrees with the armed one block by
/// block. Returns the decoded chunks.
fn assert_runs_price_exactly(what: &str, stream: &Stream, config: &LzssConfig) -> Vec<Vec<u8>> {
    let sim = || GpuSim::new(DeviceSpec::gtx480()).with_workers(2);
    let (chunks, exact) = stream.decode(&sim().with_sanitizer(), config);
    let report = exact.sanitizer.as_ref().expect("an armed launch reports");
    assert!(report.is_clean(), "{what}: {report}");
    let unarmed = sim();
    for run in ["cold", "warm"] {
        let (decoded, stats) = stream.decode(&unarmed, config);
        assert_eq!(decoded, chunks, "{what}: {run} output");
        assert_eq!(stats.per_block.len(), exact.per_block.len(), "{what}: block count");
        for (block, (e, r)) in exact.per_block.iter().zip(&stats.per_block).enumerate() {
            assert_eq!(
                fields(e),
                fields(r),
                "{what}: {run} block {block}\narmed {e:?}\nruns {r:?}"
            );
        }
        assert_eq!(exact.cost.cycles.to_bits(), stats.cost.cycles.to_bits(), "{what}: {run}");
    }
    chunks
}

#[test]
fn corpus_and_edge_streams_price_runs_exactly() {
    let config = CulzssParams::v2().lzss_config();
    let mut inputs: Vec<_> = Dataset::ALL
        .iter()
        .map(|dataset| (format!("{dataset:?}"), dataset.generate(CORPUS_BYTES, 2011)))
        .collect();
    for size in EDGE_SIZES {
        for dataset in Dataset::ALL {
            inputs.push((format!("{dataset:?}, {size} bytes"), dataset.generate(size, 3)));
        }
    }
    for (what, input) in inputs {
        let chunks = assert_runs_price_exactly(&what, &Stream::compressed(&input), &config);
        assert_eq!(chunks.concat(), input, "{what}");
    }
}

/// Tokens up to `CHUNK` bytes: `lead` literals, then `next(offset)`'s
/// matches, each clipped to the chunk's end (a match shorter than the
/// minimum ends the chunk with literals).
fn chunk_of(
    config: &LzssConfig,
    lead: &[u8],
    mut next: impl FnMut(usize) -> (usize, usize),
) -> Vec<Token> {
    let mut tokens: Vec<Token> = lead.iter().map(|&b| Token::Literal(b)).collect();
    let mut offset = lead.len();
    while offset < CHUNK {
        let (distance, length) = next(offset);
        let length = length.min(CHUNK - offset);
        if length < config.min_match {
            tokens.push(Token::Literal(b'.'));
            offset += 1;
            continue;
        }
        assert!(distance >= 1 && distance <= offset.min(config.window_size));
        tokens.push(Token::Match { distance: distance as u16, length: length as u16 });
        offset += length;
    }
    tokens
}

#[test]
fn crafted_copies_price_runs_exactly() {
    for config in [LzssConfig::culzss_v1(), LzssConfig::culzss_v2()] {
        let max = config.max_match;
        let crafted: Vec<(&str, Vec<Token>)> = vec![
            // Deep overlapping copies: each match reads bytes it writes.
            ("distance 1", chunk_of(&config, b"r", |_| (1, config.min_match + 2))),
            ("distance 2", chunk_of(&config, b"ab", |_| (2, max))),
            ("distance 3", chunk_of(&config, b"abc", |_| (3, max - 1))),
            // Lanes with several matches per round: each match copies
            // the four literals before it, so every match is in round 1,
            // and with five tokens per pattern each lane of a 128-lane
            // block holds several of them.
            ("one round", {
                let mut tokens = Vec::new();
                for k in 0..CHUNK / 8 {
                    let lit = b"wxyz".map(|b| Token::Literal(b.wrapping_add(k as u8)));
                    tokens.extend(lit);
                    tokens.push(Token::Match { distance: 4, length: 4 });
                }
                tokens
            }),
            // Every token after the first a max-length match: at distance
            // 1 (one chain), at distance `max` (each copies the last), and
            // at distances sweeping the window (varying alignments).
            ("max length, distance 1", chunk_of(&config, b"m", |_| (1, max))),
            ("max length, distance max", {
                let mut first = true;
                chunk_of(&config, b"m", |_| {
                    let distance = if std::mem::take(&mut first) { 1 } else { max };
                    (distance, max)
                })
            }),
            ("max length, sweeping distances", {
                let mut step = 0usize;
                chunk_of(&config, b"s", |offset| {
                    step += 7;
                    (1 + step % offset.min(config.window_size), max)
                })
            }),
        ];
        for (what, tokens) in crafted {
            let what = format!("{what}, max_match {max}");
            let expected = token::expand(&tokens, &config).unwrap();
            assert_eq!(expected.len(), CHUNK, "{what}");
            // Two copies of the chunk, so the second block's meter starts
            // from the first's reused logs.
            let stream = Stream::of_chunks(&[tokens.clone(), tokens], &config);
            let chunks = assert_runs_price_exactly(&what, &stream, &config);
            assert_eq!(chunks, [expected.clone(), expected], "{what}");
        }
    }
}
