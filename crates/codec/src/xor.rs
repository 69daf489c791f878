//! XOR kernels.
//!
//! Everything in a RAID-6 array code reduces to XOR over fixed-size blocks.
//! The hot loop works in 64-byte groups of eight `u64` lanes (`[u64; 8]`)
//! — a shape LLVM autovectorizes to full-width vector ops on every current
//! target without a line of unsafe or any explicit SIMD — with a `u64`
//! mid-loop and a scalar tail for odd lengths.
//!
//! One const-generic kernel, `wide_xor`, covers every arity/form pair
//! the schedule executor needs:
//!
//! * **accumulate** (`SET = false`, `dst ^= s₀ ^ s₁ ^ …`): folds up to
//!   eight source streams per accumulator load/store;
//! * **set** (`SET = true`, `dst = s₀ ^ s₁ ^ …`): never reads `dst`. The
//!   multi-source entry points open with a set kernel instead of
//!   `fill(0)`-or-`copy_from_slice` followed by a separate XOR pass,
//!   saving one full write (or read-modify-write) pass over the
//!   destination.
//!
//! Earlier revisions hand-wrote six monomorphic kernels
//! (`xor_into2/4/8`, `xor_set2/4/8`) as towers of zipped `chunks_exact`
//! iterators; `wide_xor::<N, SET>` generates the same machine code from
//! thirty lines.

/// `dst ^= src`, element-wise. Panics if lengths differ.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_into: length mismatch");
    wide_xor::<1, false>(dst, [src]);
}

/// `dst = a ^ b`, element-wise into a fresh output slice. Single pass over
/// `dst` (set-form kernel; `dst` is never read).
pub fn xor_into_from(dst: &mut [u8], a: &[u8], b: &[u8]) {
    assert_eq!(dst.len(), a.len(), "xor_into_from: length mismatch (a)");
    assert_eq!(dst.len(), b.len(), "xor_into_from: length mismatch (b)");
    wide_xor::<2, true>(dst, [a, b]);
}

/// XOR all `sources` together into `dst` (overwrite semantics: previous
/// contents of `dst` do not contribute). With no sources, `dst` becomes
/// all-zero. The first two sources are folded into the initial overwrite
/// pass — there is no separate zeroing or copying pass over `dst`.
pub fn xor_many_into(dst: &mut [u8], sources: &[&[u8]]) {
    for src in sources {
        assert_eq!(dst.len(), src.len(), "xor_many_into: length mismatch");
    }
    match sources {
        [] => dst.fill(0),
        [a] => dst.copy_from_slice(a),
        [a, b, rest @ ..] => {
            wide_xor::<2, true>(dst, [a, b]);
            for src in rest {
                wide_xor::<1, false>(dst, [src]);
            }
        }
    }
}

/// Default tile size for the multi-source kernels: each destination tile
/// stays resident in L1 while several sources stream through it, so a
/// parity built from many members loads and stores its accumulator once
/// per source *group* instead of once per source. Tuned with a tile
/// sweep (see EXPERIMENTS.md); 16 KiB leaves
/// room in a 32 KiB L1d for the destination tile plus streaming sources.
/// The schedule executor refines this at runtime — see [`crate::tile`].
pub const TILE_BYTES: usize = 16 * 1024;

/// Bytes per wide lane group: eight `u64` lanes, which LLVM lowers to two
/// 32-byte (or four 16-byte) vector ops on current targets.
const WIDE_BYTES: usize = 64;

type Wide = [u64; 8];

#[inline]
fn load_u64(bytes: &[u8]) -> u64 {
    u64::from_ne_bytes(bytes.try_into().expect("chunk is 8 bytes"))
}

#[inline]
fn load_wide(bytes: &[u8]) -> Wide {
    let mut w = [0u64; 8];
    for (lane, chunk) in w.iter_mut().zip(bytes.chunks_exact(8)) {
        *lane = load_u64(chunk);
    }
    w
}

#[inline]
fn store_wide(bytes: &mut [u8], w: Wide) {
    for (chunk, lane) in bytes.chunks_exact_mut(8).zip(w) {
        chunk.copy_from_slice(&lane.to_ne_bytes());
    }
}

/// The one kernel behind every arity/form pair: XOR `N` equal-length
/// source streams into `dst`, overwriting (`SET = true`, `dst` never read)
/// or accumulating (`SET = false`). Works in [`WIDE_BYTES`]-sized
/// `[u64; 8]` groups, then single `u64` words, then bytes. Entirely safe
/// code; the per-iteration slice indexing bounds-checks are hoisted by
/// LLVM against the up-front length asserts.
#[inline]
fn wide_xor<const N: usize, const SET: bool>(dst: &mut [u8], srcs: [&[u8]; N]) {
    let len = dst.len();
    for s in &srcs {
        assert_eq!(s.len(), len, "wide_xor: length mismatch");
    }
    let mut off = 0;
    while off + WIDE_BYTES <= len {
        let mut acc: Wide = if SET {
            [0; 8]
        } else {
            load_wide(&dst[off..off + WIDE_BYTES])
        };
        for s in &srcs {
            let w = load_wide(&s[off..off + WIDE_BYTES]);
            for (a, x) in acc.iter_mut().zip(w) {
                *a ^= x;
            }
        }
        store_wide(&mut dst[off..off + WIDE_BYTES], acc);
        off += WIDE_BYTES;
    }
    while off + 8 <= len {
        let mut acc = if SET {
            0u64
        } else {
            load_u64(&dst[off..off + 8])
        };
        for s in &srcs {
            acc ^= load_u64(&s[off..off + 8]);
        }
        dst[off..off + 8].copy_from_slice(&acc.to_ne_bytes());
        off += 8;
    }
    while off < len {
        let mut acc = if SET { 0u8 } else { dst[off] };
        for s in &srcs {
            acc ^= s[off];
        }
        dst[off] = acc;
        off += 1;
    }
}

/// One destination tile: overwrite `d` with the XOR of every fetched source
/// slice restricted to `range`. Opens with the widest applicable *set*
/// kernel (8/4/2/copy) so the destination is never pre-zeroed or
/// pre-copied, then folds the remaining sources eight at a time, finishing
/// with a 4/2/1 remainder. `pub(crate)` because the schedule executor
/// ([`XorProgram::run_with_tile`](crate::schedule::XorProgram::run_with_tile))
/// drives tiles directly — tile-major across all ops — instead of through
/// [`xor_gather_tiled`]'s per-op loop.
pub(crate) fn xor_tile<'a, I: Copy, F>(
    d: &mut [u8],
    indices: &[I],
    range: (usize, usize),
    fetch: &F,
) where
    F: Fn(I) -> &'a [u8],
{
    let (start, end) = range;
    let s = |i: I| &fetch(i)[start..end];
    // Opening set-form group: consume the widest prefix we have a kernel for.
    let rest = match indices {
        [] => {
            d.fill(0);
            return;
        }
        [a] => {
            d.copy_from_slice(s(*a));
            return;
        }
        [a0, a1, a2, a3, a4, a5, a6, a7, rest @ ..] => {
            wide_xor::<8, true>(
                d,
                [
                    s(*a0),
                    s(*a1),
                    s(*a2),
                    s(*a3),
                    s(*a4),
                    s(*a5),
                    s(*a6),
                    s(*a7),
                ],
            );
            rest
        }
        [a0, a1, a2, a3, rest @ ..] => {
            wide_xor::<4, true>(d, [s(*a0), s(*a1), s(*a2), s(*a3)]);
            rest
        }
        [a0, a1, rest @ ..] => {
            wide_xor::<2, true>(d, [s(*a0), s(*a1)]);
            rest
        }
    };
    // Accumulate the rest, eight sources per pass.
    let mut octs = rest.chunks_exact(8);
    for o in octs.by_ref() {
        wide_xor::<8, false>(
            d,
            [
                s(o[0]),
                s(o[1]),
                s(o[2]),
                s(o[3]),
                s(o[4]),
                s(o[5]),
                s(o[6]),
                s(o[7]),
            ],
        );
    }
    let mut tail = octs.remainder();
    if let [a, b, c, e, more @ ..] = tail {
        wide_xor::<4, false>(d, [s(*a), s(*b), s(*c), s(*e)]);
        tail = more;
    }
    match tail {
        [] => {}
        [a] => wide_xor::<1, false>(d, [s(*a)]),
        [a, b] => wide_xor::<2, false>(d, [s(*a), s(*b)]),
        [a, b, c] => {
            wide_xor::<2, false>(d, [s(*a), s(*b)]);
            wide_xor::<1, false>(d, [s(*c)]);
        }
        _ => unreachable!("remainder after 8- and 4-wide folds has < 4 elements"),
    }
}

/// Gather-form multi-source XOR: `dst = fetch(i₀) ^ fetch(i₁) ^ …` for the
/// given indices, resolved through `fetch` so callers never build a
/// per-operation `Vec<&[u8]>`. Overwrite semantics (the first source group
/// is written with a set-form kernel — `dst` is never pre-copied or
/// pre-zeroed), `tile_bytes`-sized tiles (clamped to at least 8;
/// production callers pass [`TILE_BYTES`]), and up to eight sources folded
/// per pass. With no indices, `dst` is zeroed.
pub(crate) fn xor_gather_tiled<'a, I: Copy, F>(
    dst: &mut [u8],
    indices: &[I],
    fetch: F,
    tile_bytes: usize,
) where
    F: Fn(I) -> &'a [u8],
{
    let len = dst.len();
    for &i in indices {
        assert_eq!(fetch(i).len(), len, "xor_gather_tiled: length mismatch");
    }
    let tile = tile_bytes.max(8);
    let mut start = 0;
    loop {
        let end = (start + tile).min(len);
        xor_tile(&mut dst[start..end], indices, (start, end), &fetch);
        if end == len {
            break;
        }
        start = end;
    }
}

/// XOR all `sources` into `dst` with multi-source unrolling: up to eight
/// sources are folded per pass in `[u64; 8]` lanes, and the block is
/// processed in `tile_bytes`-sized tiles (clamped to at least 8) so the
/// destination stays hot while the sources stream through. Overwrites
/// `dst` (no pre-zeroing pass); with no sources, `dst` becomes all-zero.
/// Byte-identical to [`xor_many_into`]. The kernel the tile probe
/// ([`crate::tile`]) times; production encodes go through the schedule
/// executor.
pub fn xor_many_into_tiled(dst: &mut [u8], sources: &[&[u8]], tile_bytes: usize) {
    xor_gather_tiled(dst, sources, |s| s, tile_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference semantics: zero, then accumulate one source at a time.
    fn xor_many_naive(dst: &mut [u8], sources: &[&[u8]]) {
        dst.fill(0);
        for src in sources {
            assert_eq!(dst.len(), src.len());
            for (d, s) in dst.iter_mut().zip(*src) {
                *d ^= s;
            }
        }
    }

    #[test]
    fn xor_roundtrip() {
        let a: Vec<u8> = (0..=255u8).collect();
        let b: Vec<u8> = (0..=255u8).rev().collect();
        let mut d = a.clone();
        xor_into(&mut d, &b);
        xor_into(&mut d, &b);
        assert_eq!(d, a);
    }

    #[test]
    fn odd_lengths_hit_the_tail() {
        // Lengths straddling both the 64-byte wide groups and the 8-byte
        // mid-loop: 63/65 exercise the wide→u64 handoff, 7/9 the u64→byte
        // handoff, 64/128 the pure wide path.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129] {
            let a: Vec<u8> = (0..len as u32).map(|i| (i * 7 + 3) as u8).collect();
            let b: Vec<u8> = (0..len as u32).map(|i| (i * 13 + 1) as u8).collect();
            let mut d = a.clone();
            xor_into(&mut d, &b);
            let expect: Vec<u8> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
            assert_eq!(d, expect, "len={len}");
        }
    }

    #[test]
    fn xor_many_zero_sources_clears() {
        let mut d = vec![0xAA; 16];
        xor_many_into(&mut d, &[]);
        assert!(d.iter().all(|&b| b == 0));
    }

    #[test]
    fn xor_many_overwrites_stale_destination() {
        // Overwrite semantics must hold on every source-count path (empty,
        // single-copy, set2-opening): stale bytes in dst never leak through.
        for n_sources in 0..=5usize {
            let srcs: Vec<Vec<u8>> = (0..n_sources)
                .map(|k| (0..33u32).map(|i| ((i + k as u32) * 31) as u8).collect())
                .collect();
            let refs: Vec<&[u8]> = srcs.iter().map(std::vec::Vec::as_slice).collect();
            let mut d = vec![0x5Au8; 33];
            xor_many_into(&mut d, &refs);
            let mut expect = vec![0u8; 33];
            xor_many_naive(&mut expect, &refs);
            assert_eq!(d, expect, "n_sources={n_sources}");
        }
    }

    #[test]
    fn xor_many_matches_sequential() {
        let srcs: Vec<Vec<u8>> = (0..5)
            .map(|k| (0..33u32).map(|i| ((i + k) * 31) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = srcs.iter().map(std::vec::Vec::as_slice).collect();
        let mut d = vec![0u8; 33];
        xor_many_into(&mut d, &refs);
        let mut expect = vec![0u8; 33];
        for s in &srcs {
            for (e, &x) in expect.iter_mut().zip(s) {
                *e ^= x;
            }
        }
        assert_eq!(d, expect);
    }

    #[test]
    fn xor_into_from_basic() {
        let a = [1u8, 2, 3];
        let b = [255u8, 0, 3];
        let mut d = [0u8; 3];
        xor_into_from(&mut d, &a, &b);
        assert_eq!(d, [254, 2, 0]);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let mut d = [0u8; 3];
        xor_into(&mut d, &[0u8; 4]);
    }

    #[test]
    fn unrolled_matches_naive_for_all_source_counts() {
        // 0..=20 sources covers: the empty/copy/set2/set4/set8 opening
        // groups, full 8-wide accumulate folds, and every 0..=7 remainder
        // branch after them. Odd lengths exercise the u64 and scalar tails;
        // 257 crosses several 64-byte wide groups.
        for n_sources in 0..=20usize {
            for len in [0usize, 1, 7, 8, 33, 65, 257] {
                let srcs: Vec<Vec<u8>> = (0..n_sources)
                    .map(|k| {
                        (0..len as u32)
                            .map(|i| ((i + 1) * (k as u32 + 3) * 97) as u8)
                            .collect()
                    })
                    .collect();
                let refs: Vec<&[u8]> = srcs.iter().map(std::vec::Vec::as_slice).collect();
                let mut naive = vec![0xAB; len];
                xor_many_naive(&mut naive, &refs);
                let mut unrolled = vec![0xCD; len];
                xor_many_into_tiled(&mut unrolled, &refs, TILE_BYTES);
                assert_eq!(naive, unrolled, "n_sources={n_sources} len={len}");
                let mut simple = vec![0xEF; len];
                xor_many_into(&mut simple, &refs);
                assert_eq!(naive, simple, "n_sources={n_sources} len={len}");
            }
        }
    }

    #[test]
    fn unrolled_crosses_tile_boundaries() {
        let len = TILE_BYTES * 2 + 17;
        let srcs: Vec<Vec<u8>> = (0..5)
            .map(|k| {
                (0..len as u32)
                    .map(|i| (i.wrapping_mul(k + 7) >> 3) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = srcs.iter().map(std::vec::Vec::as_slice).collect();
        let mut naive = vec![0u8; len];
        xor_many_naive(&mut naive, &refs);
        let mut unrolled = vec![0u8; len];
        xor_many_into_tiled(&mut unrolled, &refs, TILE_BYTES);
        assert_eq!(naive, unrolled);
    }

    #[test]
    fn tiled_variant_matches_for_extreme_tile_sizes() {
        // Tiny tiles (clamped to 8), sub-block tiles, and tiles larger than
        // the whole block must all agree — the tile probe relies on every
        // tile size being correct.
        let len = 3 * 1024 + 13;
        let srcs: Vec<Vec<u8>> = (0..11)
            .map(|k| {
                (0..len as u32)
                    .map(|i| (i.wrapping_mul(2 * k + 9) >> 2) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = srcs.iter().map(std::vec::Vec::as_slice).collect();
        let mut naive = vec![0u8; len];
        xor_many_naive(&mut naive, &refs);
        for tile in [1usize, 8, 64, 1024, len, len * 4] {
            let mut out = vec![0x77u8; len];
            xor_many_into_tiled(&mut out, &refs, tile);
            assert_eq!(naive, out, "tile={tile}");
        }
    }

    #[test]
    fn gather_resolves_indices() {
        let pool: Vec<Vec<u8>> = (0..4).map(|k| vec![1u8 << k; 11]).collect();
        let mut d = vec![0u8; 11];
        xor_gather_tiled(&mut d, &[0usize, 2, 3], |i| pool[i].as_slice(), TILE_BYTES);
        assert!(d.iter().all(|&b| b == 0b1101));
    }

    #[test]
    #[should_panic]
    fn unrolled_length_mismatch_panics() {
        let mut d = [0u8; 3];
        xor_many_into_tiled(&mut d, &[&[0u8; 3], &[0u8; 4]], TILE_BYTES);
    }
}
