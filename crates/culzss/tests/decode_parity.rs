//! Decode parity over damaged chunk bodies.
//!
//! Every corpus contributes one chunk body per CULZSS token
//! configuration (V1 and V2), plus a synthetic chunk of distance-1 runs
//! and overlapping matches. Each body is swept through every byte flip
//! and every cut, and on each variant:
//!
//! * the fused Fixed16 decoder (`serial::decode_body` and
//!   `decode_body_into` appending after a prefix) returns exactly what
//!   the push-one-byte-at-a-time loop it replaced returns, bytes and
//!   typed errors alike;
//! * the serial GPU decode kernel returns, chunk by chunk, the `Result`
//!   of the warp engine and of `format::decode` + `token::expand`, and
//!   charges the same modelled work as the token-path kernel it replaced.

use culzss::decompress::{warp_shared_bytes, DecompressKernel, WarpDecompressKernel};
use culzss::decompress::{DEC_OPS_PER_BYTE, DEC_OPS_PER_TOKEN};
use culzss::CulzssParams;
use culzss_datasets::Dataset;
use culzss_gpusim::exec::{BlockCtx, BlockKernel};
use culzss_gpusim::{DeviceSpec, GpuSim, LaunchConfig};
use culzss_lzss::{format, serial, token, Error, LzssConfig, Token};

/// Uncompressed bytes per swept chunk.
const CHUNK: usize = 1024;

/// The Fixed16 body decoder as it was before the fused pass: validate
/// each token as it is read and push its bytes one at a time.
fn push_decode_fixed16(
    body: &[u8],
    config: &LzssConfig,
    uncompressed_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), Error> {
    let base = out.len();
    let mut pos = 0usize;
    'groups: while out.len() - base < uncompressed_len {
        let flags = *body.get(pos).ok_or(Error::UnexpectedEof { context: "flag byte" })?;
        pos += 1;
        for i in 0..8 {
            if out.len() - base >= uncompressed_len {
                break 'groups;
            }
            if flags & (0x80 >> i) != 0 {
                let offset =
                    *body.get(pos).ok_or(Error::UnexpectedEof { context: "match offset" })?;
                let biased =
                    *body.get(pos + 1).ok_or(Error::UnexpectedEof { context: "match length" })?;
                pos += 2;
                let distance = usize::from(offset) + 1;
                let length = usize::from(biased) + config.min_match;
                let produced = out.len() - base;
                if length < config.min_match || length > config.max_match {
                    return Err(Error::InvalidLength { length, max: config.max_match });
                }
                if distance == 0 || distance > produced || distance > config.window_size {
                    return Err(Error::InvalidDistance {
                        distance,
                        available: produced.min(config.window_size),
                    });
                }
                let start = out.len() - distance;
                for k in 0..length {
                    let byte = out[start + k];
                    out.push(byte);
                }
            } else {
                let byte =
                    *body.get(pos).ok_or(Error::UnexpectedEof { context: "literal byte" })?;
                pos += 1;
                out.push(byte);
            }
        }
    }
    let actual = out.len() - base;
    if actual != uncompressed_len {
        return Err(Error::SizeMismatch { expected: uncompressed_len, actual });
    }
    Ok(())
}

/// One intact chunk body per corpus, plus runs and overlapping repeats:
/// `(label, body, uncompressed length)`.
fn bodies(config: &LzssConfig) -> Vec<(String, Vec<u8>, usize)> {
    let mut chunks: Vec<(String, Vec<u8>)> =
        Dataset::ALL.iter().map(|d| (d.slug().to_string(), d.generate(CHUNK, 2011))).collect();
    let mut runs = vec![b'r'; CHUNK / 4];
    runs.extend(b"ab".iter().cycle().take(CHUNK / 4));
    runs.extend(b"overlap overlap overlap ".iter().cycle().take(CHUNK / 2));
    chunks.push(("runs".to_string(), runs));
    chunks
        .into_iter()
        .map(|(label, chunk)| {
            let body = format::encode(&serial::tokenize(&chunk, config), config);
            (label, body, chunk.len())
        })
        .collect()
}

/// The intact body, every byte flipped two ways (one bit; all bits) and
/// every cut short of the whole body.
fn variants(body: &[u8]) -> Vec<(String, Vec<u8>)> {
    let mut out = vec![("intact".to_string(), body.to_vec())];
    for at in 0..body.len() {
        for mask in [1u8 << (at % 8), 0xFF] {
            let mut bad = body.to_vec();
            bad[at] ^= mask;
            out.push((format!("flip {mask:#04x} at {at}"), bad));
        }
    }
    for cut in 0..body.len() {
        out.push((format!("cut to {cut}"), body[..cut].to_vec()));
    }
    out
}

fn configs() -> [(&'static str, LzssConfig); 2] {
    [("v1", CulzssParams::v1().lzss_config()), ("v2", CulzssParams::v2().lzss_config())]
}

/// The error variant's name, for the coverage tallies.
fn kind(result: &Result<Vec<u8>, Error>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(Error::UnexpectedEof { .. }) => "eof",
        Err(Error::InvalidLength { .. }) => "length",
        Err(Error::InvalidDistance { .. }) => "distance",
        Err(Error::SizeMismatch { .. }) => "size",
        Err(_) => "other",
    }
}

#[test]
fn intact_bodies_hold_runs_and_overlapping_matches() {
    for (name, config) in configs() {
        let (mut runs, mut overlaps) = (0, 0);
        for (_, body, len) in bodies(&config) {
            for t in format::decode(&body, &config, len).unwrap() {
                if let Token::Match { distance, length } = t {
                    runs += usize::from(distance == 1);
                    overlaps += usize::from(distance > 1 && distance < length);
                }
            }
        }
        assert!(runs > 0 && overlaps > 0, "{name}: {runs} runs, {overlaps} overlaps");
    }
}

#[test]
fn fused_decoder_matches_the_push_loop_on_every_flip_and_cut() {
    let prefix = b"decoded before this chunk";
    for (name, config) in configs() {
        let mut seen = std::collections::BTreeSet::new();
        for (label, body, len) in bodies(&config) {
            for (what, bad) in variants(&body) {
                let at = format!("{name}/{label}/{what}");
                let mut expected = Vec::new();
                let expected =
                    push_decode_fixed16(&bad, &config, len, &mut expected).map(|()| expected);
                let fused = serial::decode_body(&bad, &config, len);
                assert_eq!(fused, expected, "{at}");
                seen.insert(kind(&fused));

                let mut appended = prefix.to_vec();
                let mut pushed = prefix.to_vec();
                assert_eq!(
                    serial::decode_body_into(&bad, &config, len, &mut appended),
                    push_decode_fixed16(&bad, &config, len, &mut pushed),
                    "{at}: appending"
                );
                if expected.is_ok() {
                    assert_eq!(appended, pushed, "{at}: appended bytes");
                }
            }
        }
        let all = ["distance", "eof", "length", "ok", "size"];
        assert!(all.iter().all(|k| seen.contains(k)), "{name}: the sweep only saw {seen:?}");
    }
}

/// The serial decode kernel as it was before the fused pass: token
/// decode, then expand, charging the tokens between the two.
struct TokenPathKernel<'a> {
    payload: &'a [u8],
    layout: &'a [(std::ops::Range<usize>, usize)],
    config: LzssConfig,
}

impl BlockKernel for TokenPathKernel<'_> {
    type Output = Result<Vec<u8>, Error>;

    fn run_block(&self, block: &mut BlockCtx) -> Result<Vec<u8>, Error> {
        let (range, unc_len) = &self.layout[block.block_idx];
        let body = &self.payload[range.clone()];
        let mut out = Err(Error::UnexpectedEof { context: "chunk body" });
        block.single_thread(|t| {
            let decoded = format::decode(body, &self.config, *unc_len).and_then(|tokens| {
                t.charge_ops(tokens.len() as u64 * DEC_OPS_PER_TOKEN);
                token::expand(&tokens, &self.config)
            });
            t.global_cached_bulk(body.len() as u64);
            t.charge_ops(*unc_len as u64 * DEC_OPS_PER_BYTE);
            t.global_bulk(*unc_len as u64, 1, true);
            out = decoded;
        });
        out
    }
}

#[test]
fn serial_kernel_matches_warp_and_token_path_on_every_flip_and_cut() {
    let sim = GpuSim::new(DeviceSpec::gtx480()).with_workers(2);
    for (name, config) in configs() {
        for (label, body, len) in bodies(&config) {
            let variants = variants(&body);
            let mut payload = Vec::new();
            let mut layout = Vec::new();
            for (_, bad) in &variants {
                let start = payload.len();
                payload.extend_from_slice(bad);
                layout.push((start..payload.len(), len));
            }
            let launch = LaunchConfig::new(layout.len(), 128);
            let serial = sim
                .launch(
                    launch,
                    &DecompressKernel {
                        payload: &payload,
                        layout: &layout,
                        config: config.clone(),
                    },
                )
                .unwrap();
            let token_path = sim
                .launch(
                    launch,
                    &TokenPathKernel { payload: &payload, layout: &layout, config: config.clone() },
                )
                .unwrap();
            let warp = sim
                .launch(
                    launch.with_shared(warp_shared_bytes(len)),
                    &WarpDecompressKernel {
                        payload: &payload,
                        layout: &layout,
                        config: config.clone(),
                    },
                )
                .unwrap();
            for (i, (what, _)) in variants.iter().enumerate() {
                let at = format!("{name}/{label}/{what}");
                assert_eq!(serial.outputs[i], token_path.outputs[i], "{at}: token path");
                assert_eq!(serial.outputs[i], warp.outputs[i], "{at}: warp engine");
                assert_eq!(
                    serial.stats.per_block[i], token_path.stats.per_block[i],
                    "{at}: modelled work"
                );
            }
        }
    }
}
