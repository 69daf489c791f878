//! Tile-size sweep for the tile-major schedule executor (default shape
//! p = 13, 64 KiB blocks, 16-stripe batches): for every registry code,
//! time per-stripe
//! [`XorProgram::run_with_tile`] over the batch across a sweep of tile
//! sizes, printing GiB/s per point. The `tile=block` column pins the tile
//! to the block size — one iteration per stripe, which *is* the op-major
//! order the library shipped before tile-major replay — so the slow path
//! stays measurable here without staying in the library. This is the
//! measurement behind the calibration probe's candidate set
//! ([`dcode_codec::tile::TILE_CANDIDATES`]) — rerun it when moving to a
//! new host.
//!
//! Usage: `fused_tile_study [p] [block_bytes] [batch]`

use dcode_baselines::registry::{build, EVALUATED_CODES};
use dcode_codec::{Stripe, XorProgram};
use std::time::Instant;

const TILES: [usize; 6] = [
    4 * 1024,
    8 * 1024,
    16 * 1024,
    32 * 1024,
    64 * 1024,
    128 * 1024,
];
const REPS: usize = 5;

fn payload(len: usize) -> Vec<u8> {
    let mut x = 0x9E3779B97F4A7C15u64;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect()
}

fn gib_per_s(bytes: usize, elapsed_ns: u128) -> f64 {
    bytes as f64 / elapsed_ns as f64 * 1e9 / (1024.0 * 1024.0 * 1024.0)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let p: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(13);
    let block: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(64 * 1024);
    let batch: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);

    println!("tile sweep: p={p} block={block} batch={batch} reps={REPS}");
    println!(
        "{:<10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "code", "tile=block", "4K", "8K", "16K", "32K", "64K", "128K"
    );
    for &code in &EVALUATED_CODES {
        let layout = build(code, p).unwrap();
        let program = XorProgram::compile_encode(&layout);
        let data = payload(layout.data_len() * block);
        let stripe = Stripe::from_data(&layout, block, &data);
        // Encode in place: it overwrites only parity, so re-running on the
        // same batch is idempotent and measures the steady-state encode
        // rather than the cache eviction a fresh 146 MB clone causes.
        let mut ss: Vec<Stripe> = (0..batch).map(|_| stripe.clone()).collect();
        let bytes = layout.data_len() * block * batch;

        let mut row = format!("{:<10}", code.name());
        for (k, tile) in std::iter::once(block).chain(TILES).enumerate() {
            let mut best = u128::MAX;
            for _ in 0..REPS {
                let t0 = Instant::now();
                for s in &mut ss {
                    program.run_with_tile(s, tile);
                }
                best = best.min(t0.elapsed().as_nanos());
            }
            let width = if k == 0 { 10 } else { 9 };
            row.push_str(&format!(" {:>width$.3}", gib_per_s(bytes, best)));
        }
        println!("{row}");
    }
}
