//! CRC-32 (IEEE 802.3 polynomial), hand-rolled and dependency-free.
//!
//! The durable log checksums every record header and payload so that
//! recovery can distinguish "the machine died mid-write" (a torn tail,
//! repaired by truncation) from "the media rotted" (corruption, which fails
//! loudly). A table-driven byte-at-a-time implementation is plenty: the log
//! write path is dominated by the fsync, not the checksum.

/// The reflected IEEE polynomial used by zlib, Ethernet and friends.
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, built at compile time.
static TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Computes the CRC-32 of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_byte_flips() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let reference = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at byte {i} bit {bit}");
            }
        }
    }
}
