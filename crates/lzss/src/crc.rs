//! CRC-32 shared by the integrity layers in this workspace.
//!
//! This is the bzip2 variant of CRC-32: same polynomial as zlib
//! (0x04C11DB7) but MSB-first bit order and no reflection, init
//! all-ones, final complement. It started life in `culzss-bzip2` (which
//! re-exports it, so bzip2 streams keep their exact on-disk CRCs) and
//! moved here when the CLZC container gained per-chunk and whole-stream
//! checksums in container v2.
//!
//! [`Crc32::update`] runs slicing-by-16: sixteen 256-entry tables, built at
//! compile time, advance the state over 16 bytes with one lookup per byte
//! and no dependency between the lookups; only a tail shorter than 16
//! bytes takes the classic one-table loop.

/// The CRC-32 polynomial, MSB-first.
const POLY: u32 = 0x04C1_1DB7;

/// Slicing-by-16 lookup tables: `TABLES[0]` is the classic one-byte
/// table, and `TABLES[k][v]` is the CRC contribution of byte `v` followed
/// by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u32) << 24;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000_0000 != 0 { (crc << 1) ^ POLY } else { crc << 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev << 8) ^ t[0][(prev >> 24) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Streaming CRC state (bzip2 style: init all-ones, final complement).
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh CRC accumulator.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes: 16-byte blocks through the sliced tables, then the
    /// tail of fewer than 16 bytes one table lookup per byte.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            // The state lines up with the block's first four bytes (MSB
            // first); byte j of the block is followed by 15 - j more.
            let x = crc ^ u32::from_be_bytes([block[0], block[1], block[2], block[3]]);
            crc = t[15][(x >> 24) as usize]
                ^ t[14][(x >> 16) as u8 as usize]
                ^ t[13][(x >> 8) as u8 as usize]
                ^ t[12][x as u8 as usize];
            for (j, &b) in block[4..].iter().enumerate() {
                crc ^= t[11 - j][usize::from(b)];
            }
        }
        for &b in blocks.remainder() {
            crc = (crc << 8) ^ t[0][usize::from((crc >> 24) as u8 ^ b)];
        }
        self.state = crc;
    }

    /// Final CRC value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC of a buffer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// bzip2's stream-level CRC combination: rotate-left by one, then XOR the
/// block CRC in.
pub fn combine(stream_crc: u32, block_crc: u32) -> u32 {
    stream_crc.rotate_left(1) ^ block_crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Checked against an independent bit-at-a-time implementation of
        // bzip2's BZ2_crc32Table semantics (below).
        assert_eq!(crc32(b"123456789"), bitwise_crc(b"123456789"));
        assert_eq!(crc32(b"hello world"), bitwise_crc(b"hello world"));
        let all: Vec<u8> = (0..=255).collect();
        assert_eq!(crc32(&all), bitwise_crc(&all));
    }

    /// Independent bit-at-a-time reference.
    fn bitwise_crc(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b) << 24;
            for _ in 0..8 {
                crc = if crc & 0x8000_0000 != 0 { (crc << 1) ^ POLY } else { crc << 1 };
            }
        }
        !crc
    }

    /// Deterministic test bytes (an LCG), so failures reproduce.
    fn sample(len: usize, seed: u32) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_update_matches_bitwise_reference_at_every_short_length() {
        // 0..=70 covers no block, one to four whole blocks, and every
        // tail length in between.
        let data = sample(70, 1);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bitwise_crc(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn sliced_update_matches_bitwise_reference_at_random_lengths() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xC2C);
        for round in 0..24 {
            let len = rng.gen_range(0..=64 * 1024);
            let data = sample(len, round);
            assert_eq!(crc32(&data), bitwise_crc(&data), "length {len}");
        }
    }

    #[test]
    fn two_updates_compose_at_every_split_of_a_block_boundary_crossing_buffer() {
        let data = sample(100, 7);
        let reference = bitwise_crc(&data);
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), reference, "split at {split}");
        }
    }

    #[test]
    fn empty_crc_is_zero() {
        // Init all-ones, complemented untouched → 0.
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"incremental crc updates must compose";
        let mut crc = Crc32::new();
        for chunk in data.chunks(5) {
            crc.update(chunk);
        }
        assert_eq!(crc.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"flip any bit and the crc changes".to_vec();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32(&bad), reference, "missed flip at {byte}.{bit}");
            }
        }
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = crc32(b"block one");
        let b = crc32(b"block two");
        assert_ne!(combine(combine(0, a), b), combine(combine(0, b), a));
    }
}
