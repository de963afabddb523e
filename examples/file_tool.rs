//! The paper's "standalone compression program … which is accepting files
//! as input and writing the compressed file back to the output file" —
//! the I/O version of the library.
//!
//! ```text
//! cargo run --release --example file_tool -- compress   input.bin out.clz [v1|v2|serial]
//! cargo run --release --example file_tool -- decompress out.clz restored.bin [v1|v2|serial]
//! cargo run --release --example file_tool -- selftest
//! ```

use std::process::ExitCode;

use culzss::{Culzss, Version};
use culzss_lzss::{serial, LzssConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compress") if args.len() >= 3 => run(&args[1], &args[2], codec(args.get(3)), true),
        Some("decompress") if args.len() >= 3 => run(&args[1], &args[2], codec(args.get(3)), false),
        Some("selftest") => selftest(),
        _ => {
            eprintln!(
                "usage: file_tool compress|decompress <input> <output> [v1|v2|serial]\n       file_tool selftest"
            );
            ExitCode::from(2)
        }
    }
}

enum Codec {
    Gpu(Version),
    Serial,
}

fn codec(arg: Option<&String>) -> Codec {
    match arg.map(String::as_str) {
        Some("v1") => Codec::Gpu(Version::V1),
        Some("serial") => Codec::Serial,
        _ => Codec::Gpu(Version::V2),
    }
}

fn run(input_path: &str, output_path: &str, codec: Codec, compressing: bool) -> ExitCode {
    let input = match std::fs::read(input_path) {
        Ok(data) => data,
        Err(e) => {
            eprintln!("cannot read {input_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let started = std::time::Instant::now();
    let result = match (&codec, compressing) {
        (Codec::Gpu(version), true) => {
            Culzss::new(*version).compress(&input).map(|(bytes, stats)| {
                println!(
                    "GPU pipeline (modelled): {:.3} ms kernel, {:.3} ms transfers",
                    stats.kernel_seconds * 1e3,
                    (stats.h2d_seconds + stats.d2h_seconds) * 1e3
                );
                bytes
            })
        }
        (Codec::Gpu(version), false) => {
            Culzss::new(*version).decompress(&input).map(|(bytes, _)| bytes)
        }
        (Codec::Serial, compressing) => {
            let config = LzssConfig::dipperstein();
            let r = if compressing {
                serial::compress(&input, &config)
            } else {
                serial::decompress(&input, &config)
            };
            r.map_err(culzss::CulzssError::Codec)
        }
    };
    match result {
        Ok(bytes) => {
            if let Err(e) = std::fs::write(output_path, &bytes) {
                eprintln!("cannot write {output_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "{} {} -> {} bytes in {:.1} ms (host wall)",
                if compressing { "compressed" } else { "decompressed" },
                input.len(),
                bytes.len(),
                started.elapsed().as_secs_f64() * 1e3
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("codec error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn selftest() -> ExitCode {
    let dir = std::env::temp_dir().join("culzss_file_tool_selftest");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let original = dir.join("original.bin");
    let packed = dir.join("packed.clz");
    let restored = dir.join("restored.bin");

    let data = culzss_datasets::Dataset::KernelTarball.generate(512 * 1024, 99);
    std::fs::write(&original, &data).expect("write input");

    for codec in ["v1", "v2", "serial"] {
        for (mode, from, to) in
            [("compress", &original, &packed), ("decompress", &packed, &restored)]
        {
            let status = run(
                from.to_str().expect("utf8 path"),
                to.to_str().expect("utf8 path"),
                self::codec(Some(&codec.to_string())),
                mode == "compress",
            );
            if status != ExitCode::SUCCESS {
                eprintln!("selftest failed in {codec} {mode}");
                return ExitCode::FAILURE;
            }
        }
        let roundtripped = std::fs::read(&restored).expect("read restored");
        assert_eq!(roundtripped, data, "{codec} roundtrip mismatch");
        println!("{codec}: file roundtrip OK");
    }
    ExitCode::SUCCESS
}
