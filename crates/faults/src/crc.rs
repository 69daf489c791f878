//! CRC32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven.
//!
//! The array layer stamps every block with its CRC32 so silent corruption
//! — bit rot, torn writes that survived their retries, firmware lying
//! about a write — is *detected* at read time and converted into an
//! erasure the RAID-6 code can repair. CRC32 is the classic storage-page
//! checksum: 4 bytes of state per block, undetected-error probability
//! ~2⁻³² per corrupted block.
//!
//! It is not free. Every block the array reads or writes is summed once,
//! and this loop does one dependent table lookup per byte: ≈ 0.4 GB/s
//! (≈ 10 µs a 4 KiB block) beside XOR kernels that stream several GiB/s.
//! It is nearly all of a small put and most of what a rebuilt block still
//! costs, so the checksum is the first thing to count when a path's block
//! count changes (ROADMAP "Spend the budget II" has the eight-bytes-a-step
//! kernel and why it is not in yet).

/// The 256-entry lookup table for the reflected IEEE polynomial.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC32 of `data` (IEEE, init `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        let idx = ((crc ^ u32::from(byte)) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let data: Vec<u8> = (0..255).collect();
        let clean = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), clean, "flip at byte {i} bit {bit}");
            }
        }
    }
}
