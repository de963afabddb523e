//! Hand-rolled argument parsing (no external dependencies).

use culzss::DecodeEngine;

/// Usage text printed on parse errors.
pub const USAGE: &str = "\
usage:
  culzss compress   <input> <output> [--codec v1|v2|v3|lzss|pthread|bzip2] [--report]
  culzss decompress <input> <output> [--codec auto|v1|v2|v3|lzss|pthread|bzip2]
                    [--engine serial|warp] [--salvage]
  culzss verify     <file>
  culzss info       <file>
  culzss gen        <dataset> <bytes> <output> [--seed N]
  culzss serve      [--devices N] [--cpu-workers N] [--tenants N] [--jobs N]
                    [--payload BYTES] [--queue-depth N] [--batch-jobs N]
                    [--tenant-rate BYTES/S] [--tenant-burst BYTES]
                    [--fail-first N] [--corrupt-every N] [--seed N]
                    [--trace-out PATH] [--cache-mb N]
                    [--chaos-seed N] [--device-fail SPEC[,SPEC...]]
  culzss profile    <input> [--codec v1|v2|v3] [--decompress]
                    [--engine serial|warp] [--out PATH]
  culzss dedup      <input> [--cache-mb N]
  culzss bench-serve [--jobs N] [--payload BYTES] [--seed N]
  culzss sancheck   [--dataset SLUG|all] [--bytes N] [--seed N]
  culzss selftest

codecs: v1/v2/v3 = CULZSS on the simulated GTX 480 (default v2; v3 is
        the fused GPU-selection engine, byte-identical streams to v2);
        lzss = serial CPU; pthread = threaded CPU; bzip2 = block sorting;
        auto (decompress) = detect from the stream header.
datasets: c-files de-map dictionary kernel-tarball highly-compressible mixed
verify: checks every checksum in a compressed file (per-chunk verdicts
       for containers) and exits nonzero on any damage.
decompress --salvage: best-effort decode of a damaged CULZSS container —
       intact chunks are recovered, damaged ones become zero-filled
       holes, and the damage report is printed.
decompress --engine: which simulated decode kernel CULZSS containers run
       through — serial (paper-faithful block decoder, default) or warp
       (two-pass warp-parallel decoder). Outputs are byte-identical.
serve: runs the multi-tenant service against a closed-loop load generator
       and prints the service stats; bench-serve sweeps pool shapes.
       --corrupt-every N flips a bit in every N-th compressed output to
       exercise the verify-and-quarantine path. --trace-out writes the
       run's Chrome trace (host spans + modelled GPU block spans).
       --cache-mb N fronts the compressors with an N-MiB content-
       addressed chunk cache (dedup); repeated payloads are served from
       cache and the stats gain hit/miss/bytes-saved counters.
       --tenant-rate N installs a per-tenant token bucket refilling at
       N payload bytes per second (0 = unlimited, the default);
       --tenant-burst sets its burst capacity in bytes. A tenant may
       borrow up to one extra burst against future refill before
       submissions are refused with a typed over-limit error.
       --device-fail installs a seeded chaos schedule on the named
       devices (comma-separated specs, launch indices are 0-based):
         D:dead@N      device D dies at its N-th launch (forever)
         D:dead@N+M    ...and heals after M failing launches
         D:flaky@P     each launch fails with probability P (0..1)
         D:slow@X      kernel time multiplied by X
         D:hang@N      launch N hangs until the watchdog kills it
       --chaos-seed drives the schedule's coin flips; the same seed
       replays the same faults and breaker transitions.
profile: compresses <input> through the service once and writes the
       request's Chrome trace (default <input>.trace.json) — load it in
       Perfetto or chrome://tracing; prints the stage breakdown.
       --decompress profiles the decode path instead: the input is
       compressed untimed, then a decompress job runs through the
       service with the selected --engine and the decode stages are
       printed and traced.
dedup: compresses <input> twice through a chunk-cache-backed compressor
       and prints the chunking layout, cold/warm hit rates, and the
       bytes served from cache; the output stays a byte-identical v2
       container either way.
sancheck: runs all three CULZSS kernels and both decode engines (serial
       and warp-parallel, over streams from every kernel) on corpus samples
       under the shared-memory sanitizer (racecheck) and prints the
       reports; exits nonzero on any conflict or barrier divergence.";

/// Which compressor/decompressor to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// CULZSS V1 on the simulated device.
    V1,
    /// CULZSS V2 on the simulated device.
    V2,
    /// CULZSS V3 (fused GPU selection + compaction) on the simulated
    /// device.
    V3,
    /// Serial CPU LZSS (Dipperstein configuration).
    Lzss,
    /// Threaded CPU LZSS.
    Pthread,
    /// Block-sorting baseline.
    Bzip2,
    /// Detect from the stream magic (decompress only).
    Auto,
}

impl Codec {
    fn parse(s: &str) -> Result<Codec, String> {
        match s {
            "v1" => Ok(Codec::V1),
            "v2" => Ok(Codec::V2),
            "v3" => Ok(Codec::V3),
            "lzss" => Ok(Codec::Lzss),
            "pthread" => Ok(Codec::Pthread),
            "bzip2" => Ok(Codec::Bzip2),
            "auto" => Ok(Codec::Auto),
            other => Err(format!("unknown codec `{other}`")),
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Compress `input` into `output`.
    Compress {
        /// Input path.
        input: String,
        /// Output path.
        output: String,
        /// Codec choice.
        codec: Codec,
        /// Print the launch report (GPU codecs).
        report: bool,
    },
    /// Decompress `input` into `output`.
    Decompress {
        /// Input path.
        input: String,
        /// Output path.
        output: String,
        /// Codec choice (or Auto).
        codec: Codec,
        /// Decode kernel for CULZSS containers (serial or warp).
        engine: DecodeEngine,
        /// Best-effort decode: zero-fill damaged chunks instead of
        /// failing (CULZSS containers only).
        salvage: bool,
    },
    /// Check every checksum in a compressed file.
    Verify {
        /// Path to verify.
        path: String,
    },
    /// Describe a compressed file.
    Info {
        /// Path to inspect.
        path: String,
    },
    /// Generate a corpus.
    Gen {
        /// Dataset slug (or "mixed").
        dataset: String,
        /// Bytes to generate.
        bytes: usize,
        /// Output path.
        output: String,
        /// Generator seed.
        seed: u64,
    },
    /// Run the multi-tenant compression service under generated load.
    Serve {
        /// Simulated GPU devices in the pool.
        devices: usize,
        /// Dedicated CPU fallback workers.
        cpu_workers: usize,
        /// Concurrent load-generator tenants.
        tenants: usize,
        /// Jobs per tenant.
        jobs: usize,
        /// Payload bytes per job.
        payload: usize,
        /// Admission queue bound.
        queue_depth: usize,
        /// Max jobs coalesced per batch window.
        batch_jobs: usize,
        /// Per-tenant token-bucket refill rate in bytes/s (0 = unlimited).
        tenant_rate: u64,
        /// Per-tenant token-bucket burst capacity in bytes.
        tenant_burst: usize,
        /// Inject failures into the first N GPU attempts.
        fail_first: u64,
        /// Flip a bit in every N-th compressed output (0 = never).
        corrupt_every: u64,
        /// Load-generator seed.
        seed: u64,
        /// Write the run's Chrome trace here.
        trace_out: Option<String>,
        /// Chunk-cache byte budget in MiB (0 = no cache).
        cache_mb: usize,
        /// Seed for the chaos fault schedule.
        chaos_seed: u64,
        /// Comma-separated per-device fault specs
        /// (`D:dead@N[+M]`, `D:flaky@P`, `D:slow@X`, `D:hang@N`).
        device_fail: Option<String>,
    },
    /// Trace one compression (or decompression) request end to end.
    Profile {
        /// Input path.
        input: String,
        /// Codec choice (GPU codecs only).
        codec: Codec,
        /// Profile the decode path instead of the compress path.
        decompress: bool,
        /// Decode kernel when profiling the decode path.
        engine: DecodeEngine,
        /// Trace output path (default `<input>.trace.json`).
        out: Option<String>,
    },
    /// Report chunking and cache behaviour for one input.
    Dedup {
        /// Input path.
        input: String,
        /// Chunk-cache byte budget in MiB.
        cache_mb: usize,
    },
    /// Sweep service pool shapes under identical load.
    BenchServe {
        /// Jobs per tenant.
        jobs: usize,
        /// Payload bytes per job.
        payload: usize,
        /// Load-generator seed.
        seed: u64,
    },
    /// Run all three CULZSS kernels and both decode engines under the
    /// shared-memory sanitizer.
    Sancheck {
        /// Dataset slug, or "all" for the five evaluation corpora.
        dataset: String,
        /// Sample bytes per corpus.
        bytes: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Round-trip every codec on generated data.
    Selftest,
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let sub = it.next().ok_or("missing subcommand")?;
    let rest: Vec<&String> = it.collect();

    let positional = |n: usize| -> Result<Vec<&String>, String> {
        let pos: Vec<&String> = rest.iter().filter(|a| !a.starts_with("--")).copied().collect();
        if pos.len() < n {
            Err(format!("`{sub}` needs {n} positional argument(s)"))
        } else {
            Ok(pos)
        }
    };
    let flag_value = |name: &str| -> Result<Option<&String>, String> {
        let mut out = None;
        let mut iter = rest.iter();
        while let Some(a) = iter.next() {
            if a.as_str() == name {
                out = Some(*iter.next().ok_or(format!("{name} needs a value"))?);
            }
        }
        Ok(out)
    };
    let has_flag = |name: &str| rest.iter().any(|a| a.as_str() == name);
    let decode_engine = || -> Result<DecodeEngine, String> {
        match flag_value("--engine")? {
            Some(v) => DecodeEngine::parse(v)
                .ok_or_else(|| format!("unknown decode engine `{v}` (serial|warp)")),
            None => Ok(DecodeEngine::Serial),
        }
    };

    match sub.as_str() {
        "compress" => {
            let pos = positional(2)?;
            let codec = match flag_value("--codec")? {
                Some(v) => Codec::parse(v)?,
                None => Codec::V2,
            };
            if codec == Codec::Auto {
                return Err("`auto` is only valid for decompress".into());
            }
            Ok(Command::Compress {
                input: pos[0].clone(),
                output: pos[1].clone(),
                codec,
                report: has_flag("--report"),
            })
        }
        "decompress" => {
            let pos = positional(2)?;
            let codec = match flag_value("--codec")? {
                Some(v) => Codec::parse(v)?,
                None => Codec::Auto,
            };
            Ok(Command::Decompress {
                input: pos[0].clone(),
                output: pos[1].clone(),
                codec,
                engine: decode_engine()?,
                salvage: has_flag("--salvage"),
            })
        }
        "verify" => {
            let pos = positional(1)?;
            Ok(Command::Verify { path: pos[0].clone() })
        }
        "info" => {
            let pos = positional(1)?;
            Ok(Command::Info { path: pos[0].clone() })
        }
        "gen" => {
            let pos = positional(3)?;
            let bytes: usize =
                pos[1].parse().map_err(|_| format!("bad byte count `{}`", pos[1]))?;
            let seed: u64 = match flag_value("--seed")? {
                Some(v) => v.parse().map_err(|_| format!("bad seed `{v}`"))?,
                None => 2011,
            };
            Ok(Command::Gen { dataset: pos[0].clone(), bytes, output: pos[2].clone(), seed })
        }
        "serve" => {
            let num = |name: &str, default: usize| -> Result<usize, String> {
                match flag_value(name)? {
                    Some(v) => v.parse().map_err(|_| format!("bad value for {name}: `{v}`")),
                    None => Ok(default),
                }
            };
            Ok(Command::Serve {
                devices: num("--devices", 1)?.max(1),
                cpu_workers: num("--cpu-workers", 1)?,
                tenants: num("--tenants", 4)?.max(1),
                jobs: num("--jobs", 16)?,
                payload: num("--payload", 64 * 1024)?,
                queue_depth: num("--queue-depth", 128)?,
                batch_jobs: num("--batch-jobs", 8)?,
                tenant_rate: num("--tenant-rate", 0)? as u64,
                tenant_burst: num("--tenant-burst", 8 << 20)?,
                fail_first: num("--fail-first", 0)? as u64,
                corrupt_every: num("--corrupt-every", 0)? as u64,
                seed: num("--seed", 2011)? as u64,
                trace_out: flag_value("--trace-out")?.cloned(),
                cache_mb: num("--cache-mb", 0)?,
                chaos_seed: num("--chaos-seed", 0)? as u64,
                device_fail: flag_value("--device-fail")?.cloned(),
            })
        }
        "profile" => {
            let pos = positional(1)?;
            let codec = match flag_value("--codec")? {
                Some(v) => Codec::parse(v)?,
                None => Codec::V2,
            };
            if !matches!(codec, Codec::V1 | Codec::V2 | Codec::V3) {
                return Err("profile runs on the simulated device: --codec v1|v2|v3".into());
            }
            Ok(Command::Profile {
                input: pos[0].clone(),
                codec,
                decompress: has_flag("--decompress"),
                engine: decode_engine()?,
                out: flag_value("--out")?.cloned(),
            })
        }
        "dedup" => {
            let pos = positional(1)?;
            let cache_mb = match flag_value("--cache-mb")? {
                Some(v) => v.parse().map_err(|_| format!("bad value for --cache-mb: `{v}`"))?,
                None => 64,
            };
            Ok(Command::Dedup { input: pos[0].clone(), cache_mb })
        }
        "bench-serve" => {
            let num = |name: &str, default: usize| -> Result<usize, String> {
                match flag_value(name)? {
                    Some(v) => v.parse().map_err(|_| format!("bad value for {name}: `{v}`")),
                    None => Ok(default),
                }
            };
            Ok(Command::BenchServe {
                jobs: num("--jobs", 12)?,
                payload: num("--payload", 64 * 1024)?,
                seed: num("--seed", 2011)? as u64,
            })
        }
        "sancheck" => {
            let num = |name: &str, default: usize| -> Result<usize, String> {
                match flag_value(name)? {
                    Some(v) => v.parse().map_err(|_| format!("bad value for {name}: `{v}`")),
                    None => Ok(default),
                }
            };
            Ok(Command::Sancheck {
                dataset: flag_value("--dataset")?.cloned().unwrap_or_else(|| "all".into()),
                bytes: num("--bytes", 64 * 1024)?.max(1),
                seed: num("--seed", 2011)? as u64,
            })
        }
        "selftest" => Ok(Command::Selftest),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn compress_defaults() {
        let cmd = parse(&argv("compress a.bin b.clz")).unwrap();
        assert_eq!(
            cmd,
            Command::Compress {
                input: "a.bin".into(),
                output: "b.clz".into(),
                codec: Codec::V2,
                report: false
            }
        );
    }

    #[test]
    fn compress_with_flags() {
        let cmd = parse(&argv("compress a b --codec bzip2 --report")).unwrap();
        assert_eq!(
            cmd,
            Command::Compress {
                input: "a".into(),
                output: "b".into(),
                codec: Codec::Bzip2,
                report: true
            }
        );
    }

    #[test]
    fn decompress_defaults_to_auto() {
        let cmd = parse(&argv("decompress x y")).unwrap();
        assert_eq!(
            cmd,
            Command::Decompress {
                input: "x".into(),
                output: "y".into(),
                codec: Codec::Auto,
                engine: DecodeEngine::Serial,
                salvage: false
            }
        );
    }

    #[test]
    fn decompress_salvage_flag_parses() {
        match parse(&argv("decompress x y --salvage")).unwrap() {
            Command::Decompress { salvage: true, .. } => {}
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn decompress_engine_flag_parses() {
        for (flag, want) in [
            ("serial", DecodeEngine::Serial),
            ("warp", DecodeEngine::WarpParallel),
            ("warp-parallel", DecodeEngine::WarpParallel),
        ] {
            match parse(&argv(&format!("decompress x y --engine {flag}"))).unwrap() {
                Command::Decompress { engine, .. } => assert_eq!(engine, want, "{flag}"),
                other => panic!("unexpected parse: {other:?}"),
            }
        }
        assert!(parse(&argv("decompress x y --engine nope")).is_err());
    }

    #[test]
    fn verify_parses() {
        assert_eq!(parse(&argv("verify f.clz")).unwrap(), Command::Verify { path: "f.clz".into() });
        assert!(parse(&argv("verify")).is_err());
    }

    #[test]
    fn gen_parses_seed() {
        let cmd = parse(&argv("gen de-map 1024 out.bin --seed 7")).unwrap();
        assert_eq!(
            cmd,
            Command::Gen {
                dataset: "de-map".into(),
                bytes: 1024,
                output: "out.bin".into(),
                seed: 7
            }
        );
    }

    #[test]
    fn errors() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("compress onlyone")).is_err());
        assert!(parse(&argv("compress a b --codec nope")).is_err());
        assert!(parse(&argv("compress a b --codec auto")).is_err());
        assert!(parse(&argv("gen de-map notanumber out")).is_err());
        assert!(parse(&argv("compress a b --codec")).is_err());
    }

    #[test]
    fn selftest_parses() {
        assert_eq!(parse(&argv("selftest")).unwrap(), Command::Selftest);
    }

    #[test]
    fn serve_defaults() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve {
                devices: 1,
                cpu_workers: 1,
                tenants: 4,
                jobs: 16,
                payload: 64 * 1024,
                queue_depth: 128,
                batch_jobs: 8,
                tenant_rate: 0,
                tenant_burst: 8 << 20,
                fail_first: 0,
                corrupt_every: 0,
                seed: 2011,
                trace_out: None,
                cache_mb: 0,
                chaos_seed: 0,
                device_fail: None,
            }
        );
    }

    #[test]
    fn serve_chaos_flags_parse() {
        match parse(&argv("serve --chaos-seed 42 --device-fail 0:dead@5+10,1:flaky@0.2")).unwrap() {
            Command::Serve { chaos_seed: 42, device_fail: Some(specs), .. } => {
                assert_eq!(specs, "0:dead@5+10,1:flaky@0.2");
            }
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse(&argv("serve --chaos-seed nope")).is_err());
    }

    #[test]
    fn serve_cache_mb_parses() {
        match parse(&argv("serve --cache-mb 128")).unwrap() {
            Command::Serve { cache_mb: 128, .. } => {}
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse(&argv("serve --cache-mb nope")).is_err());
    }

    #[test]
    fn dedup_defaults_and_flags() {
        assert_eq!(
            parse(&argv("dedup data.bin")).unwrap(),
            Command::Dedup { input: "data.bin".into(), cache_mb: 64 }
        );
        assert_eq!(
            parse(&argv("dedup data.bin --cache-mb 16")).unwrap(),
            Command::Dedup { input: "data.bin".into(), cache_mb: 16 }
        );
        assert!(parse(&argv("dedup")).is_err());
        assert!(parse(&argv("dedup data.bin --cache-mb nope")).is_err());
    }

    #[test]
    fn serve_trace_out_parses() {
        match parse(&argv("serve --trace-out run.trace.json")).unwrap() {
            Command::Serve { trace_out: Some(path), .. } => assert_eq!(path, "run.trace.json"),
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn profile_defaults_and_flags() {
        assert_eq!(
            parse(&argv("profile data.bin")).unwrap(),
            Command::Profile {
                input: "data.bin".into(),
                codec: Codec::V2,
                decompress: false,
                engine: DecodeEngine::Serial,
                out: None
            }
        );
        assert_eq!(
            parse(&argv("profile data.bin --codec v1 --out t.json")).unwrap(),
            Command::Profile {
                input: "data.bin".into(),
                codec: Codec::V1,
                decompress: false,
                engine: DecodeEngine::Serial,
                out: Some("t.json".into())
            }
        );
        assert!(parse(&argv("profile")).is_err());
        assert!(parse(&argv("profile data.bin --codec bzip2")).is_err());
    }

    #[test]
    fn v3_codec_parses_everywhere() {
        match parse(&argv("compress a b --codec v3")).unwrap() {
            Command::Compress { codec: Codec::V3, .. } => {}
            other => panic!("unexpected parse: {other:?}"),
        }
        match parse(&argv("decompress a b --codec v3")).unwrap() {
            Command::Decompress { codec: Codec::V3, .. } => {}
            other => panic!("unexpected parse: {other:?}"),
        }
        match parse(&argv("profile data.bin --codec v3")).unwrap() {
            Command::Profile { codec: Codec::V3, .. } => {}
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn profile_decompress_flags_parse() {
        match parse(&argv("profile data.bin --decompress --engine warp")).unwrap() {
            Command::Profile { decompress: true, engine: DecodeEngine::WarpParallel, .. } => {}
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse(&argv("profile data.bin --decompress --engine nope")).is_err());
    }

    #[test]
    fn serve_flags_parse() {
        match parse(&argv(
            "serve --devices 2 --cpu-workers 0 --fail-first 3 --queue-depth 16 --corrupt-every 4",
        ))
        .unwrap()
        {
            Command::Serve {
                devices: 2,
                cpu_workers: 0,
                fail_first: 3,
                queue_depth: 16,
                corrupt_every: 4,
                ..
            } => {}
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse(&argv("serve --devices nope")).is_err());
    }

    #[test]
    fn serve_tenant_rate_flags_parse() {
        match parse(&argv("serve --tenant-rate 65536 --tenant-burst 4096")).unwrap() {
            Command::Serve { tenant_rate: 65536, tenant_burst: 4096, .. } => {}
            other => panic!("unexpected parse: {other:?}"),
        }
        assert!(parse(&argv("serve --tenant-rate nope")).is_err());
        assert!(parse(&argv("serve --tenant-burst nope")).is_err());
    }

    #[test]
    fn sancheck_defaults_and_flags() {
        assert_eq!(
            parse(&argv("sancheck")).unwrap(),
            Command::Sancheck { dataset: "all".into(), bytes: 64 * 1024, seed: 2011 }
        );
        assert_eq!(
            parse(&argv("sancheck --dataset de-map --bytes 4096 --seed 9")).unwrap(),
            Command::Sancheck { dataset: "de-map".into(), bytes: 4096, seed: 9 }
        );
        assert!(parse(&argv("sancheck --bytes nope")).is_err());
    }

    #[test]
    fn bench_serve_parses() {
        assert_eq!(
            parse(&argv("bench-serve --jobs 6 --payload 4096")).unwrap(),
            Command::BenchServe { jobs: 6, payload: 4096, seed: 2011 }
        );
    }
}
