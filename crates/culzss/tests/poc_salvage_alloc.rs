//! Regression: a tiny crafted container claiming a huge `total_len`
//! passes `parse_lenient` (its per-chunk expansion bound trusts the
//! claimed compressed sizes, which a truncated stream need not hold), so
//! salvage must bound the claim by the bytes it was given before it
//! allocates or zero-fills anything.

use culzss_lzss::container::Container;
use culzss_lzss::Error;

fn le32(v: u32) -> [u8; 4] {
    v.to_le_bytes()
}

/// A v1 (checksum-free) Fixed16 header with window 128 and matches
/// 3..=18 — a valid CULZSS configuration — declaring `n_chunks` chunks of
/// `chunk_size` bytes, each claiming `comp_size` compressed bytes, and
/// no payload at all.
fn crafted(chunk_size: u32, n_chunks: u32, comp_size: u32) -> Vec<u8> {
    let total_len = u64::from(chunk_size) * u64::from(n_chunks);
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"CLZC");
    bytes.push(1); // container version 1
    bytes.push(2); // TokenFormat::Fixed16
    bytes.push(3); // min_match
    bytes.push(0); // reserved
    bytes.extend_from_slice(&le32(128)); // window
    bytes.extend_from_slice(&le32(18)); // max_match
    bytes.extend_from_slice(&le32(chunk_size));
    bytes.extend_from_slice(&total_len.to_le_bytes());
    bytes.extend_from_slice(&le32(n_chunks));
    for _ in 0..n_chunks {
        bytes.extend_from_slice(&le32(comp_size));
    }
    bytes
}

fn assert_refused(bytes: &[u8], total_len: u64) {
    let (container, _) = Container::parse_lenient(bytes).expect("the metadata parses");
    assert_eq!(container.total_len, total_len);
    match culzss::salvage::salvage(bytes) {
        Err(Error::InvalidContainer { reason }) => {
            assert!(reason.contains("total_len"), "{reason}");
        }
        Err(other) => panic!("expected InvalidContainer, got {other:?}"),
        Ok((out, _)) => panic!("salvage materialized {} bytes from {}", out.len(), bytes.len()),
    }
}

#[test]
fn tiny_file_claims_huge_total_len() {
    // 16 chunks of 4 GiB each: a 96-byte file claiming 64 GiB.
    let bytes = crafted(u32::MAX, 16, u32::MAX);
    assert_eq!(bytes.len(), 96);
    assert_refused(&bytes, u64::from(u32::MAX) * 16);
}

#[test]
fn salvage_refuses_to_materialize_the_claim() {
    // One chunk claiming 1.5 GB uncompressed from a zero-payload file.
    let bytes = crafted(1_500_000_000, 1, u32::MAX);
    assert_refused(&bytes, 1_500_000_000);
}
