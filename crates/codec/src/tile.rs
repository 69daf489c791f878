//! Runtime tile-size selection for the tile-major schedule executor
//! ([`XorProgram::run`](crate::schedule::XorProgram::run)).
//!
//! [`TILE_BYTES`] is a compile-time default tuned
//! on one machine's L1d. Tile-major replay keeps a whole stripe's working
//! set (every block's current tile) resident at once, so its sweet spot
//! depends on the host cache hierarchy and the stripe shape — the tile
//! sweeps EXPERIMENTS.md records (`dcode-bench -- fused_tile_study` re-runs the per-code
//! one) show a flat-topped curve across 4–32 KiB with cliffs on either
//! side. Rather than bake in
//! one point, [`fused_tile_bytes`] runs a **one-shot calibration probe**
//! over that sweep's candidate set the first time a program is replayed
//! and caches the winner for the process lifetime. Sweeps that need a
//! specific tile pin it per call through
//! [`XorProgram::run_with_tile`](crate::schedule::XorProgram::run_with_tile).

use crate::xor::{xor_many_into_tiled, TILE_BYTES};
use std::sync::OnceLock;
use std::time::Instant;

/// Candidate tile sizes, from the recorded tile sweeps: the measured
/// throughput curve is flat between 4 KiB and 32 KiB and falls off
/// outside, so the probe only has to pick within the plateau.
pub const TILE_CANDIDATES: [usize; 4] = [4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024];

/// Shape of the calibration workload: eight source streams (a D-Code
/// parity at p = 13 reads 11 members; eight is the widest kernel fold) of
/// one representative block each.
const PROBE_SOURCES: usize = 8;
const PROBE_BLOCK: usize = 64 * 1024;
const PROBE_REPS: u32 = 5;

/// The tile size [`XorProgram::run`](crate::schedule::XorProgram::run)
/// replays with, decided once per process by the calibration probe. (The
/// name predates the one tile-major executor; it is kept because callers
/// outside the workspace use it.)
pub fn fused_tile_bytes() -> usize {
    static CHOSEN: OnceLock<usize> = OnceLock::new();
    *CHOSEN.get_or_init(calibrate)
}

/// Time one multi-source XOR pass per candidate and return the fastest.
/// Each candidate gets [`PROBE_REPS`] passes over [`PROBE_SOURCES`]
/// sources of [`PROBE_BLOCK`] bytes (a few MiB of traffic total — a
/// handful of milliseconds, paid once); the minimum rep time per candidate
/// is compared so a scheduler hiccup cannot crown the wrong tile.
fn calibrate() -> usize {
    let srcs: Vec<Vec<u8>> = (0..PROBE_SOURCES)
        .map(|k| {
            (0..PROBE_BLOCK as u32)
                .map(|i| (i.wrapping_mul(k as u32 * 2 + 7) >> 3) as u8)
                .collect()
        })
        .collect();
    let refs: Vec<&[u8]> = srcs.iter().map(Vec::as_slice).collect();
    let mut dst = vec![0u8; PROBE_BLOCK];
    // Warm the buffers (first touch / page faults) outside the timing.
    xor_many_into_tiled(&mut dst, &refs, TILE_BYTES);
    let mut best = (TILE_BYTES, u128::MAX);
    for &tile in &TILE_CANDIDATES {
        let mut fastest = u128::MAX;
        for _ in 0..PROBE_REPS {
            let t0 = Instant::now();
            xor_many_into_tiled(&mut dst, &refs, tile);
            fastest = fastest.min(t0.elapsed().as_nanos());
        }
        if fastest < best.1 {
            best = (tile, fastest);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_picks_a_candidate() {
        let tile = calibrate();
        assert!(
            TILE_CANDIDATES.contains(&tile) || tile == TILE_BYTES,
            "probe returned {tile}, not a candidate"
        );
    }

    #[test]
    fn chosen_tile_is_stable_and_sane() {
        let a = fused_tile_bytes();
        let b = fused_tile_bytes();
        assert_eq!(a, b, "tile choice must be decided once per process");
        assert!(a >= 8, "tile must satisfy the kernel's minimum");
    }
}
