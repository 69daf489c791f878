//! The seeded generator: op mix, key choice and value bytes all derive
//! from `--seed`, so the same seed gives the same inputs on every commit.
//! The program under test receives only what is generated here (names and
//! value bytes) — never the seed or a workload name.
//!
//! Correctness accounting lives here too: the [`Ledger`] remembers the last
//! *acknowledged* version of every key, every read is checked against it,
//! and the [`Tally`] of attempted/failed operations is what the benchmark's
//! last output line reports.

/// SplitMix64: tiny, seedable, and good enough to pick ops and keys. Kept
/// here rather than taken from the workspace's vendored `rand`, so that a
/// later change to that crate cannot move the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁵⁰ for the
    /// key counts used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Mix independent stream identifiers into one seed, so connection 0 and
/// connection 1 (or the op stream and the value bytes) never share a
/// sequence.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut r = Rng::new(seed ^ a.wrapping_mul(0xA076_1D64_78BD_642F));
    r.next_u64() ^ b.wrapping_mul(0xE703_7ED1_A0B4_28DB)
}

/// The bytes of `key`'s value at `version`: a pure function of
/// `(seed, key, version)`, so a reader can regenerate what a writer wrote
/// without keeping a copy. Every 8-byte word differs between versions.
pub fn fill_value(buf: &mut Vec<u8>, seed: u64, key: u64, version: u64, len: usize) {
    buf.clear();
    buf.reserve(len);
    let mut rng = Rng::new(mix(seed, key, version));
    while buf.len() + 8 <= len {
        buf.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    let tail = rng.next_u64().to_le_bytes();
    buf.extend_from_slice(&tail[..len - buf.len()]);
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OpKind {
    Put,
    Get,
}

/// One connection's op sequence: a pure function of its seed, independent
/// of timing, so the wire run and the single-threaded replay of a traced
/// pass see the same ops in the same order.
///
/// Kinds come in shuffled blocks of [`MIX_BLOCK`] ops holding exactly the
/// requested share of puts. A put costs tens of gets, so with independent
/// draws the share of puts a run happened to get — a percent or two either
/// way — would move `ops_per_s` by as much, for no reason in the program.
pub struct OpStream {
    rng: Rng,
    keys: usize,
    block: [OpKind; MIX_BLOCK],
    next: usize,
}

const MIX_BLOCK: usize = 20;

impl OpStream {
    /// `put_percent` is a multiple of 5.
    pub fn new(seed: u64, keys: usize, put_percent: usize) -> Self {
        let puts = put_percent * MIX_BLOCK / 100;
        assert!(keys > 0 && puts <= MIX_BLOCK && puts * 100 == put_percent * MIX_BLOCK);
        let mut block = [OpKind::Get; MIX_BLOCK];
        block[..puts].fill(OpKind::Put);
        OpStream {
            rng: Rng::new(seed),
            keys,
            block,
            next: MIX_BLOCK,
        }
    }

    /// Next `(kind, key index)`, keys uniform.
    pub fn next_op(&mut self) -> (OpKind, usize) {
        if self.next == MIX_BLOCK {
            for i in (1..MIX_BLOCK).rev() {
                self.block.swap(i, self.rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        (self.block[self.next - 1], self.rng.below(self.keys))
    }
}

/// Last acknowledged version per key. Version 0 is the prefill.
pub struct Ledger {
    versions: Vec<u64>,
}

impl Ledger {
    pub fn new(keys: usize) -> Self {
        Ledger {
            versions: vec![0; keys],
        }
    }

    pub fn acked(&self, key: usize) -> u64 {
        self.versions[key]
    }

    pub fn ack(&mut self, key: usize, version: u64) {
        self.versions[key] = version;
    }

    pub fn keys(&self) -> usize {
        self.versions.len()
    }
}

/// Operations attempted and failed. A failure is an error reply, a `Busy`
/// that survived its retries, a value that differs from the last
/// acknowledged one, a lost acknowledged write at read-back, or a failed
/// parity / recovery / scrub check.
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let (mut a, mut b) = (OpStream::new(7, 64, 50), OpStream::new(7, 64, 50));
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let (mut x, mut y) = (Vec::new(), Vec::new());
        fill_value(&mut x, 3, 5, 9, 1021);
        fill_value(&mut y, 3, 5, 9, 1021);
        assert_eq!(x, y);
        assert_eq!(x.len(), 1021);
    }

    #[test]
    fn versions_keys_and_seeds_change_the_bytes() {
        let mut base = Vec::new();
        fill_value(&mut base, 1, 2, 3, 256);
        for (seed, key, version) in [(2, 2, 3), (1, 3, 3), (1, 2, 4)] {
            let mut other = Vec::new();
            fill_value(&mut other, seed, key, version, 256);
            assert_ne!(base, other);
        }
    }

    #[test]
    fn op_mix_holds_the_requested_share_exactly() {
        let mut s = OpStream::new(11, 8, 30);
        let kinds: Vec<OpKind> = (0..10_000).map(|_| s.next_op().0).collect();
        assert_eq!(kinds.iter().filter(|&&k| k == OpKind::Put).count(), 3000);
        // ...and the order inside a block is shuffled, not fixed.
        assert_ne!(kinds[..20], kinds[20..40]);
    }
}
