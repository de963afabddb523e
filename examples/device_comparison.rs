//! Runs the same CULZSS workload on three simulated GPU generations and
//! exports a Chrome-trace timeline of the GTX 480 run, validated before
//! it is written.
//!
//! ```text
//! cargo run --release --example device_comparison
//! chrome://tracing  →  load /tmp/culzss_v2_trace.json
//! ```
//!
//! Demonstrates the device-model side of the simulator: the paper's
//! GTX 480 against the pre-Fermi GTX 280 (no L1, narrower transactions)
//! and the compute-oriented Tesla C2050.

use culzss::{Culzss, CulzssParams};
use culzss_datasets::Dataset;
use culzss_gpusim::report::format_launch;
use culzss_gpusim::trace::Timeline;
use culzss_gpusim::DeviceSpec;
use culzss_server::tracing::DEVICE_PID_BASE;
use culzss_server::{chrome_trace, validate_chrome_trace, SpanRecord};

fn main() {
    let input = Dataset::KernelTarball.generate(2 << 20, 0xDE7);
    println!("workload: {} KiB kernel-tarball corpus, CULZSS V2\n", input.len() >> 10);

    let mut trace: Option<String> = None;
    for device in [DeviceSpec::gtx280(), DeviceSpec::gtx480(), DeviceSpec::c2050()] {
        let culzss = Culzss::with_device(device.clone(), CulzssParams::v2()).with_workers(4);
        let (compressed, stats) = culzss.compress(&input).expect("compress");
        let launch = stats.launch.as_ref().expect("launch stats");
        println!("{}", format_launch("culzss_v2_match", &device, launch));
        println!(
            "ratio {:.1}%, pipeline total {:.3} ms\n",
            100.0 * compressed.len() as f64 / input.len() as f64,
            stats.modeled_total_seconds() * 1e3
        );

        if device.name.contains("480") {
            let timeline = Timeline::from_launch(
                &device,
                launch.block_dim,
                culzss.params().shared_bytes(),
                &launch.per_block,
            );
            println!(
                "GTX 480 timeline: {} block spans, SM utilization {:.0}%\n",
                timeline.spans.len(),
                timeline.utilization() * 100.0
            );
            let spans: Vec<SpanRecord> = timeline
                .spans
                .iter()
                .map(|span| SpanRecord::block("culzss_v2", DEVICE_PID_BASE, 0.0, span))
                .collect();
            trace = Some(chrome_trace(&spans));
        }
    }

    if let Some(json) = trace {
        validate_chrome_trace(&json).expect("valid trace");
        let path = std::env::temp_dir().join("culzss_v2_trace.json");
        std::fs::write(&path, json).expect("write trace");
        println!("chrome trace written to {}", path.display());
    }
}
