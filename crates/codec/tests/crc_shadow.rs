//! `XorProgram::run_crcs` against the hash: after a program runs, the
//! shadow replay over per-block CRC32s must equal `crc32` of every block.
//! Covered for every registry code at p ∈ {5, 7}, at block lengths that
//! hit a short block, a page and a page plus one byte, over every program
//! shape the array replays: the full-stripe encode, every single-column
//! rebuild and a degraded read of each column chosen by the minimum-read
//! search, every two-column peeling program, and subprograms for random
//! missing-cell sets. The stripes hold random
//! bytes in every block, erased or not, so the identity is checked for any
//! starting contents, not only for codewords.

use dcode_baselines::registry::all_codes;
use dcode_codec::{ScheduleCache, Stripe, XorProgram};
use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use dcode_faults::crc32;
use std::collections::BTreeSet;
use std::sync::Arc;

/// splitmix64.
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_stripe(layout: &CodeLayout, block: usize, seed: &mut u64) -> Stripe {
    let mut stripe = Stripe::zeroed(layout, block);
    for cell in layout.grid().cells() {
        stripe
            .block_mut(cell)
            .iter_mut()
            .for_each(|b| *b = next(seed) as u8);
    }
    stripe
}

/// Run `program` over a random stripe and its CRCs side by side, then
/// compare the shadow with a hash of every block.
fn check(layout: &CodeLayout, program: &XorProgram, block: usize, seed: &mut u64, what: &str) {
    let grid = layout.grid();
    let zero_crc = crc32(&vec![0u8; block]);
    let mut stripe = random_stripe(layout, block, seed);
    let mut crcs: Vec<u32> = grid.cells().map(|c| crc32(stripe.block(c))).collect();
    program.run(&mut stripe);
    program.run_crcs(&mut crcs, zero_crc);
    for (i, &crc) in crcs.iter().enumerate() {
        let cell = grid.cell_at(i);
        assert_eq!(
            crc,
            crc32(stripe.block(cell)),
            "{} p = {}, {what}, {block}-byte blocks: block {cell:?}",
            layout.name(),
            layout.prime()
        );
    }
}

#[test]
fn shadow_crcs_equal_the_hash_for_every_program_shape() {
    let mut seed = 28;
    for p in [5, 7] {
        for layout in all_codes(p) {
            let cache = ScheduleCache::new();
            let (grid, cols) = (layout.grid(), layout.disks());
            let mut programs: Vec<(String, Arc<XorProgram>)> =
                vec![("encode".into(), cache.encode_program(&layout))];
            let nothing = BTreeSet::new();
            for col in 0..cols {
                let column: BTreeSet<Cell> = grid.column(col).collect();
                let compiled = cache
                    .recovery_subprogram(&layout, [col].into_iter(), &column, &nothing)
                    .unwrap();
                programs.push((format!("optimal rebuild of column {col}"), compiled.program));
                // A degraded read of the column's first half holding the
                // survivors of those rows.
                let half: BTreeSet<Cell> =
                    column.iter().take(grid.rows.div_ceil(2)).copied().collect();
                let loaded: BTreeSet<Cell> = grid
                    .cells()
                    .filter(|c| c.col != col && c.row < half.len())
                    .collect();
                let compiled = cache
                    .recovery_subprogram(&layout, [col].into_iter(), &half, &loaded)
                    .unwrap();
                programs.push((
                    format!("minimum-read recovery in column {col}"),
                    compiled.program,
                ));
            }
            for a in 0..cols {
                for b in a + 1..cols {
                    let compiled = cache.column_program(&layout, &[a, b]).unwrap();
                    programs.push((format!("peeling of columns {a}, {b}"), compiled.program));
                }
            }
            for _ in 0..8 {
                let a = (next(&mut seed) % cols as u64) as usize;
                let b = (a + 1 + (next(&mut seed) % (cols as u64 - 1)) as usize) % cols;
                let erased: BTreeSet<usize> = [a, b].into();
                let missing: BTreeSet<Cell> = erased
                    .iter()
                    .flat_map(|&c| grid.column(c))
                    .filter(|_| next(&mut seed) % 2 == 0)
                    .collect();
                if missing.is_empty() {
                    continue;
                }
                let compiled = cache
                    .recovery_subprogram(&layout, erased.iter().copied(), &missing, &nothing)
                    .unwrap();
                programs.push((format!("subprogram for {missing:?}"), compiled.program));
            }
            for block in [32, 4096, 4097] {
                for (what, program) in &programs {
                    check(&layout, program, block, &mut seed, what);
                }
            }
        }
    }
}
