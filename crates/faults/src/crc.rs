//! CRC32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven, plus the
//! algebra that lets a caller derive a CRC instead of hashing again.
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
//! several GiB/s. So a write hashes only the bytes that are new — the
//! data cells it was handed — and every block it read back to verify.
//! Everything else it stores follows from those CRCs: CRC32 is affine over
//! GF(2), so for blocks of one length `crc(a ⊕ b ⊕ c) = crc(a) ⊕ crc(b) ⊕
//! crc(c)` and `crc(a ⊕ b) = crc(a) ⊕ crc(b) ⊕ crc(0ⁿ)`, which gives a new
//! parity's CRC from its members'; and [`Crc32Shift`] gives the CRC of a
//! concatenation from the parts' CRCs, which gives the journal's payload
//! CRC. Rebuild and read-repair hash what they read and derive what they
//! write: a recovery program is a pure XOR schedule, so replaying it over
//! the survivors' CRCs gives every reconstructed block's. Reads, scrub and
//! replay still hash every block they read. The eight-bytes-a-step kernel
//! that would make each remaining hash cheaper is ROADMAP item 2a.

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

/// zlib's `crc32_combine` for one fixed length, precomputed: the linear
/// map that advances a CRC register over `len` zero bytes, as a 32×32
/// matrix over GF(2). Then `combine(crc32(a), crc32(b)) == crc32(a ‖ b)`
/// for every `b` of `len` bytes, at 32 conditional XORs instead of a pass
/// over `b`. Build it once per length and keep it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Crc32Shift {
    /// Column `i` is the image of register bit `i`.
    cols: [u32; 32],
}

impl Crc32Shift {
    /// The operator for appending `len` bytes.
    pub fn new(len: usize) -> Self {
        // One zero bit: shift the register right, folding the polynomial
        // in when a set bit leaves. Three squarings make it one zero byte.
        let mut step: [u32; 32] = std::array::from_fn(|i| (1 << i) >> 1);
        step[0] = POLY;
        for _ in 0..3 {
            step = compose(&step, &step);
        }
        // Square-and-multiply over the bits of `len`.
        let mut cols: [u32; 32] = std::array::from_fn(|i| 1 << i);
        let mut n = len;
        while n != 0 {
            if n & 1 != 0 {
                cols = compose(&step, &cols);
            }
            step = compose(&step, &step);
            n >>= 1;
        }
        Crc32Shift { cols }
    }

    /// CRC32 of `a ‖ b` from `crc_a = crc32(a)` and `crc_b = crc32(b)`,
    /// where `b` is this operator's length. Processing `b` from a register
    /// holding `!crc_a` instead of `!0` differs, by linearity, only in the
    /// zero-byte advance of `crc_a`.
    pub fn combine(&self, crc_a: u32, crc_b: u32) -> u32 {
        apply(&self.cols, crc_a) ^ crc_b
    }
}

/// Matrix × vector over GF(2): the XOR of the columns `v` selects.
fn apply(cols: &[u32; 32], mut v: u32) -> u32 {
    let mut out = 0;
    let mut i = 0;
    while v != 0 {
        if v & 1 != 0 {
            out ^= cols[i];
        }
        v >>= 1;
        i += 1;
    }
    out
}

/// `a ∘ b`: apply `b`, then `a`.
fn compose(a: &[u32; 32], b: &[u32; 32]) -> [u32; 32] {
    std::array::from_fn(|i| apply(a, b[i]))
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
    fn combine_is_the_crc_of_the_concatenation() {
        let mut seed = 27;
        let mut lens = vec![0usize, 1, 31, 4096, 4097];
        lens.extend((0..12).map(|_| {
            let r = prand(&mut seed, 2);
            usize::from(u16::from_le_bytes([r[0], r[1]])) % 9000
        }));
        for len_b in lens {
            let shift = Crc32Shift::new(len_b);
            for len_a in [0usize, 1, 13, 4096] {
                let a = prand(&mut seed, len_a);
                let b = prand(&mut seed, len_b);
                let whole = [a.as_slice(), &b].concat();
                assert_eq!(
                    shift.combine(crc32(&a), crc32(&b)),
                    crc32(&whole),
                    "|a| = {len_a}, |b| = {len_b}"
                );
            }
        }
    }

    #[test]
    fn zero_length_shift_is_the_identity() {
        let shift = Crc32Shift::new(0);
        for crc in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            assert_eq!(shift.combine(crc, 0), crc);
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
