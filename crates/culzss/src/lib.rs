//! # culzss — LZSS lossless compression on a (simulated) CUDA GPU
//!
//! Rust reproduction of *CULZSS: LZSS Lossless Data Compression on CUDA*
//! (Ozsoy & Swany, CLUSTER 2011). Both GPU designs from the paper are
//! implemented as kernels for the [`culzss_gpusim`] execution-model
//! simulator:
//!
//! * **Version 1** ([`kernel_v1`]) — the input is cut into 4 KB chunks;
//!   every GPU *thread* compresses one chunk against a 128-byte sliding
//!   window held in shared memory, writing into a per-thread output
//!   bucket. The CPU then compacts the partially-filled buckets into a
//!   contiguous stream ("getting rid of the empty parts of the bucket").
//! * **Version 2** ([`kernel_v2`]) — each *block* owns one 4 KB chunk and
//!   its 128 threads cooperatively match **every** input position against
//!   the window (redundantly — V2 "cannot take advantage of skipping over
//!   the already encoded data"). The serial match *selection* and flag
//!   generation run on the CPU afterwards, which also creates the
//!   CPU/GPU overlap opportunity modelled in [`pipeline`].
//! * **Version 3** ([`v3`]) — the GPULZ-style fused engine: V2's match
//!   phase feeds an on-device greedy selection walk, a Hillis–Steele
//!   prefix sum sizes the output, and a compaction pass scatters a
//!   padding-free body — the CPU keeps only container assembly. Streams
//!   are byte-identical to V2's.
//! * **Decompression** ([`decompress`]) — block-parallel decode driven by
//!   the per-chunk compressed-size table recorded during compression,
//!   with two engines: the paper-faithful serial block decoder and a
//!   two-pass warp-parallel decoder ([`decompress::DecodeEngine`]).
//!
//! The in-memory API of the paper's Figure 2 lives in [`api`]
//! ([`api::gpu_compress`] / [`api::gpu_decompress`]), and the tuning
//! parameters the paper sweeps (threads per block, window size, chunk
//! size, shared-memory placement) are exposed through
//! [`params::CulzssParams`] and swept by [`tuning`].
//!
//! ## Quickstart
//!
//! ```
//! use culzss::{Culzss, Version};
//!
//! let input = b"in memory compression for network applications ".repeat(400);
//! let culzss = Culzss::new(Version::V2);
//! let (compressed, stats) = culzss.compress(&input).unwrap();
//! let (restored, _) = culzss.decompress(&compressed).unwrap();
//! assert_eq!(restored, input);
//! assert!(stats.modeled_total_seconds() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod decompress;
pub mod error;
pub mod hetero;
pub mod kernel_v1;
pub mod kernel_v2;
pub mod metered;
pub mod params;
pub mod pipeline;
pub mod salvage;
pub mod sancheck;
pub mod tuning;
pub mod v3;

pub use api::{Culzss, PipelineStats};
pub use decompress::DecodeEngine;
pub use error::{CulzssError, CulzssResult};
pub use params::{CulzssParams, Version};
pub use salvage::{DamageKind, DamagedChunk, SalvageReport};
