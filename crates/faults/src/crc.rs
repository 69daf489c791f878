//! CRC32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven.
//!
//! The array layer stamps every block with its CRC32 so silent corruption
//! — bit rot, torn writes that survived their retries, firmware lying
//! about a write — is *detected* at read time and converted into an
//! erasure the RAID-6 code can repair. CRC32 is the classic storage-page
//! checksum: 4 bytes of state per block, undetected-error probability
//! ~2⁻³² per corrupted block.
//!
//! It is not free. This loop does one dependent table lookup per byte:
//! ≈ 0.4 GB/s (≈ 10 µs a 4 KiB block) beside XOR kernels that stream
//! several GiB/s. So the array hashes only the blocks it reads and the
//! new data cells a write was handed. Every block it computes — parity on
//! a write, a reconstructed block on a rebuild or read-repair — comes out
//! of a pure XOR schedule, and CRC32 is affine over GF(2): for blocks of
//! one length `crc(a ⊕ b ⊕ c) = crc(a) ⊕ crc(b) ⊕ crc(c)` and
//! `crc(a ⊕ b) = crc(a) ⊕ crc(b) ⊕ crc(0ⁿ)`. So replaying the schedule
//! over its inputs' CRCs (`XorProgram::run_crcs` in `dcode-codec`) gives
//! the CRC of every block it writes. The journal checks each payload
//! block it reads against that block's own entry CRC. The
//! eight-bytes-a-step kernel that would make each remaining hash cheaper
//! is ROADMAP item 2a.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

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
                (crc >> 1) ^ POLY
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

    /// Deterministic bytes (splitmix64 stream).
    fn prand(seed: &mut u64, n: usize) -> Vec<u8> {
        (0..n)
            .map(|_| {
                *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    fn xor(a: &[u8], b: &[u8]) -> Vec<u8> {
        a.iter().zip(b).map(|(x, y)| x ^ y).collect()
    }

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

    #[test]
    fn crc_is_affine_over_gf2() {
        let mut seed = 7;
        for n in [1usize, 32, 4096] {
            let (a, b, c) = (
                prand(&mut seed, n),
                prand(&mut seed, n),
                prand(&mut seed, n),
            );
            let (ca, cb, cc) = (crc32(&a), crc32(&b), crc32(&c));
            // An odd number of terms: the constant cancels.
            assert_eq!(crc32(&xor(&xor(&a, &b), &c)), ca ^ cb ^ cc, "n = {n}");
            // An even number: one crc(0ⁿ) is left over.
            let zero_n = crc32(&vec![0u8; n]);
            assert_eq!(crc32(&xor(&a, &b)), ca ^ cb ^ zero_n, "n = {n}");
        }
    }
}
