//! Shared 64-bit FNV-1a hasher.
//!
//! Self-contained so fingerprints are stable across Rust releases (unlike
//! `DefaultHasher`, whose algorithm is unspecified) and identical across
//! crates: [`CodeLayout::fingerprint`](crate::layout::CodeLayout::fingerprint)
//! keys the codec's schedule cache with it, and `dcode-verify` stamps its
//! reports with a program fingerprint computed by the same primitive, so a
//! report can be matched to the exact compiled artifact it checked.

/// Incremental 64-bit FNV-1a state.
#[derive(Copy, Clone, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher initialized at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb one `u64`, little-endian.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // From the reference FNV test suite: fnv1a_64("") is the offset
        // basis, fnv1a_64("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn word_equals_le_bytes() {
        let mut a = Fnv1a::new();
        a.word(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }
}
