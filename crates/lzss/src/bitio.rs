//! MSB-first bit-level readers and writers.
//!
//! Dipperstein's reference LZSS implementation — the basis of the paper's
//! serial CPU codec — writes one flag *bit* per token and packs match codes
//! as 12-bit offsets plus 4-bit lengths. Reproducing that layout needs a
//! small bit-stream abstraction. Bits are packed most-significant-bit first,
//! matching the C `bitfile` library the original code used.

use crate::error::{Error, Result};

/// Accumulates bits MSB-first into a byte vector.
///
/// The final byte is zero-padded when [`BitWriter::finish`] is called.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Current partial byte, bits filled from the MSB down.
    current: u8,
    /// Number of valid bits in `current` (0..8).
    used: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bytes` output bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self { bytes: Vec::with_capacity(bytes), current: 0, used: 0 }
    }

    /// Creates a writer that appends (byte-aligned) to `bytes`, reusing
    /// its capacity — the allocation-free path for encoders that recycle
    /// output buffers across chunks.
    pub fn resume(bytes: Vec<u8>) -> Self {
        Self { bytes, current: 0, used: 0 }
    }

    /// Appends a single bit (`true` = 1).
    pub fn write_bit(&mut self, bit: bool) {
        self.current = (self.current << 1) | u8::from(bit);
        self.used += 1;
        if self.used == 8 {
            self.bytes.push(self.current);
            self.current = 0;
            self.used = 0;
        }
    }

    /// Appends the `count` least-significant bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32` or if `value` does not fit in `count` bits —
    /// both indicate an encoder bug, not bad input data.
    pub fn write_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        assert!(
            count == 32 || value < (1u32 << count),
            "value {value} does not fit in {count} bits"
        );
        for shift in (0..count).rev() {
            self.write_bit((value >> shift) & 1 == 1);
        }
    }

    /// Appends a whole byte (equivalent to `write_bits(byte, 8)` but faster
    /// when the writer happens to be byte-aligned).
    pub fn write_byte(&mut self, byte: u8) {
        if self.used == 0 {
            self.bytes.push(byte);
        } else {
            self.write_bits(u32::from(byte), 8);
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + usize::from(self.used)
    }

    /// Flushes the partial byte (zero-padded on the right) and returns the
    /// accumulated bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.used > 0 {
            self.bytes.push(self.current << (8 - self.used));
        }
        self.bytes
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor from the start of `bytes`.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Wraps `bytes` for bit-level reading.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Reads one bit.
    pub fn read_bit(&mut self, context: &'static str) -> Result<bool> {
        let byte_idx = self.pos / 8;
        if byte_idx >= self.bytes.len() {
            return Err(Error::UnexpectedEof { context });
        }
        let bit_idx = 7 - (self.pos % 8) as u32;
        self.pos += 1;
        Ok((self.bytes[byte_idx] >> bit_idx) & 1 == 1)
    }

    /// Reads `count` bits MSB-first into the low bits of the result.
    pub fn read_bits(&mut self, count: u8, context: &'static str) -> Result<u32> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        if self.bytes.len() * 8 - self.pos < usize::from(count) {
            return Err(Error::UnexpectedEof { context });
        }
        let mut value = 0u32;
        for _ in 0..count {
            value = (value << 1) | u32::from(self.read_bit(context)?);
        }
        Ok(value)
    }

    /// Reads a whole byte.
    pub fn read_byte(&mut self, context: &'static str) -> Result<u8> {
        Ok(self.read_bits(8, context)? as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip_msb_first() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bit(false);
        w.write_bit(true);
        let bytes = w.finish();
        // 101 padded to 1010_0000.
        assert_eq!(bytes, vec![0b1010_0000]);

        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit("t").unwrap());
        assert!(!r.read_bit("t").unwrap());
        assert!(r.read_bit("t").unwrap());
    }

    #[test]
    fn multi_bit_values_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0xABC, 12);
        w.write_bits(0x5, 4);
        w.write_bits(0x12345, 20);
        let bytes = w.finish();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(12, "a").unwrap(), 0xABC);
        assert_eq!(r.read_bits(4, "b").unwrap(), 0x5);
        assert_eq!(r.read_bits(20, "c").unwrap(), 0x12345);
    }

    #[test]
    fn write_byte_fast_path_matches_slow_path() {
        let mut fast = BitWriter::new();
        fast.write_byte(0xDE);
        fast.write_byte(0xAD);

        let mut slow = BitWriter::new();
        slow.write_bits(0xDE, 8);
        slow.write_bits(0xAD, 8);

        assert_eq!(fast.finish(), slow.finish());
    }

    #[test]
    fn unaligned_byte_write() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_byte(0xFF);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b1111_1111, 0b1000_0000]);
    }

    #[test]
    fn reader_reports_eof() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8, "x").unwrap(), 0xFF);
        assert_eq!(r.read_bit("flag"), Err(Error::UnexpectedEof { context: "flag" }));
        assert_eq!(r.read_bits(4, "code"), Err(Error::UnexpectedEof { context: "code" }));
    }

    #[test]
    fn bit_len_and_remaining_track_positions() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b101, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0x1F, 5);
        assert_eq!(w.bit_len(), 8);
        let bytes = w.finish();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(5, "x").unwrap(), 0b10111);
        assert_eq!(r.read_bits(3, "x").unwrap(), 0b111);
        assert!(r.read_bit("x").is_err());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn writer_rejects_oversized_values() {
        let mut w = BitWriter::new();
        w.write_bits(16, 4);
    }

    #[test]
    fn thirty_two_bit_values_are_allowed() {
        let mut w = BitWriter::new();
        w.write_bits(u32::MAX, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(32, "full").unwrap(), u32::MAX);
    }
}
