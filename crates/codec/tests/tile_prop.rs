//! Tile-order differential suite for the one sequential executor:
//! [`XorProgram::run_with_tile`] must be byte-identical to the naive
//! interpreters (`encode_naive`, `apply_plan_naive`) for every registry
//! code, odd block sizes, and tiles below, inside and above the block —
//! `usize::MAX` is one iteration, i.e. plain op-major order — and the bulk
//! entry points must equal per-stripe [`XorProgram::run`] across batch
//! shapes and fan-outs, restoring every stripe when a replay panics.

use dcode_baselines::registry::all_codes;
use dcode_codec::cache::{self, ScheduleCache};
use dcode_codec::{
    apply_plan_naive, encode_naive, encode_stripes, recover_stripes, run_batch, verify_parities,
    Stripe, XorProgram,
};
use dcode_core::dcode::dcode;
use dcode_core::decoder::plan_column_recovery;
use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const PRIMES: [usize; 4] = [5, 7, 11, 13];
const TILES: [usize; 4] = [8, 24, 4096, usize::MAX];

fn payload(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(i as u64 | 1) >> 11) as u8)
        .collect()
}

fn pick_layout(p_idx: usize, code_idx: usize) -> CodeLayout {
    let mut codes = all_codes(PRIMES[p_idx]);
    let n = codes.len();
    codes.swap_remove(code_idx % n)
}

fn stripes_for(layout: &CodeLayout, block_size: usize, batch: usize, seed: u64) -> Vec<Stripe> {
    let per = layout.data_len() * block_size;
    (0..batch)
        .map(|k| Stripe::from_data(layout, block_size, &payload(per, seed ^ (k as u64) << 7)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode programs: every tile order == the naive equation walk.
    #[test]
    fn tiled_encode_matches_naive(
        p_idx in 0usize..4,
        code_idx in 0usize..16,
        block_size in 1usize..200,
        seed in any::<u64>(),
    ) {
        let layout = pick_layout(p_idx, code_idx);
        let program = XorProgram::compile_encode(&layout);
        let base = stripes_for(&layout, block_size, 1, seed).remove(0);
        let mut naive = base.clone();
        encode_naive(&layout, &mut naive);
        for tile in TILES {
            let mut tiled = base.clone();
            program.run_with_tile(&mut tiled, tile);
            prop_assert_eq!(&tiled, &naive, "{} tile={}", layout.name(), tile);
        }
    }

    /// Full column-recovery programs and the cache's optimized
    /// missing-cell subprograms: every tile order == the naive plan
    /// replay, and the full recovery restores the pre-erasure bytes.
    #[test]
    fn tiled_recovery_matches_naive(
        p_idx in 0usize..4,
        code_idx in 0usize..16,
        block_size in 1usize..120,
        c1 in 0usize..64,
        c2 in 0usize..64,
        wanted in 1usize..4,
        seed in any::<u64>(),
    ) {
        let layout = pick_layout(p_idx, code_idx);
        let (c1, c2) = (c1 % layout.disks(), c2 % layout.disks());
        prop_assume!(c1 != c2);
        let cols = [c1.min(c2), c1.max(c2)];
        let plan = plan_column_recovery(&layout, &cols).expect("registry codes are MDS");
        let full = XorProgram::compile_plan(layout.grid(), &plan);
        let missing: BTreeSet<Cell> = layout.grid().column(cols[0]).take(wanted).collect();
        let sub = ScheduleCache::new()
            .recovery_subprogram(&layout, cols.iter().copied(), &missing)
            .expect("registry codes are MDS");

        let mut golden = stripes_for(&layout, block_size, 1, seed).remove(0);
        encode_naive(&layout, &mut golden);
        let mut erased = golden.clone();
        erased.erase_columns(&cols);
        let mut naive_full = erased.clone();
        apply_plan_naive(&mut naive_full, &plan);
        prop_assert_eq!(&naive_full, &golden);
        let mut naive_sub = erased.clone();
        apply_plan_naive(&mut naive_sub, &sub.plan);

        for tile in TILES {
            let mut tiled = erased.clone();
            full.run_with_tile(&mut tiled, tile);
            prop_assert_eq!(&tiled, &golden, "{} cols={:?} tile={}", layout.name(), cols, tile);
            let mut tiled = erased.clone();
            sub.program.run_with_tile(&mut tiled, tile);
            for &cell in &missing {
                prop_assert_eq!(
                    tiled.block(cell),
                    naive_sub.block(cell),
                    "{} cols={:?} cell={} tile={}", layout.name(), cols, cell, tile
                );
            }
        }
    }

    /// The bulk entry points == per-stripe `run`, across batch shapes
    /// {1, 3, 16} and fan-outs {1, 2, 4}: the public clamped forms and
    /// `run_batch` on a dedicated pool (real fan-out on any host).
    #[test]
    fn bulk_entry_points_match_per_stripe_run(
        p_idx in 0usize..2,
        block_size in 1usize..96,
        batch_idx in 0usize..3,
        threads_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let layout = dcode(PRIMES[p_idx]).unwrap();
        let batch = [1usize, 3, 16][batch_idx];
        let threads = [1usize, 2, 4][threads_idx];
        let program = Arc::new(XorProgram::compile_encode(&layout));
        let pool = minipool::WorkerPool::with_workers(2);
        let fresh = stripes_for(&layout, block_size, batch, seed);
        let mut golden = fresh.clone();
        for s in &mut golden {
            program.run(s);
        }
        let mut via_public = fresh.clone();
        encode_stripes(&layout, &mut via_public, threads);
        prop_assert_eq!(&via_public, &golden);
        let mut via_pool = fresh;
        run_batch(&program, &mut via_pool, &pool, threads);
        prop_assert_eq!(&via_pool, &golden);

        let cols = [0usize, 2];
        let plan = plan_column_recovery(&layout, &cols).unwrap();
        let recover = XorProgram::compile_plan(layout.grid(), &plan);
        let mut erased = golden.clone();
        for s in &mut erased {
            s.erase_columns(&cols);
        }
        let mut per_stripe = erased.clone();
        for s in &mut per_stripe {
            recover.run(s);
        }
        prop_assert_eq!(&per_stripe, &golden);
        recover_stripes(&layout, &cols, &mut erased, threads).unwrap();
        prop_assert_eq!(&erased, &golden);
    }

    /// A batch whose stripes have *different* block sizes stays correct
    /// (each replay reads its own stripe's size).
    #[test]
    fn heterogeneous_block_sizes_encode_correctly(
        sizes in prop::collection::vec(1usize..130, 1..6),
        threads in 1usize..4,
        seed in any::<u64>(),
    ) {
        let layout = dcode(5).unwrap();
        let program = Arc::new(XorProgram::compile_encode(&layout));
        let pool = minipool::WorkerPool::with_workers(2);
        let mut stripes: Vec<Stripe> = sizes
            .iter()
            .enumerate()
            .map(|(k, &bs)| {
                Stripe::from_data(
                    &layout,
                    bs,
                    &payload(layout.data_len() * bs, seed ^ k as u64),
                )
            })
            .collect();
        run_batch(&program, &mut stripes, &pool, threads);
        for s in &stripes {
            prop_assert!(verify_parities(&layout, s));
        }
    }

    /// A batch with a foreign-grid stripe (a degraded/mismatched member)
    /// panics on the mismatch — and the unwind must leave every healthy
    /// stripe's data intact, never a placeholder.
    #[test]
    fn mixed_grid_batch_leaves_healthy_stripes_correct_after_unwind(
        block_size in 1usize..64,
        poison_pos in 0usize..4,
        seed in any::<u64>(),
    ) {
        let layout = dcode(7).unwrap();
        let small = dcode(5).unwrap();
        let program = Arc::new(XorProgram::compile_encode(&layout));
        let pool = minipool::WorkerPool::with_workers(2);
        let mut stripes = stripes_for(&layout, block_size, 4, seed);
        let expect = stripes.clone();
        let poison_payload = payload(small.data_len() * block_size, seed ^ 0xDEAD);
        stripes[poison_pos] = Stripe::from_data(&small, block_size, &poison_payload);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch(&program, &mut stripes, &pool, 2);
        }));
        prop_assert!(caught.is_err(), "foreign-grid stripe must panic the replay");
        for (i, s) in stripes.iter().enumerate() {
            if i == poison_pos {
                prop_assert_eq!(s.grid(), small.grid());
                prop_assert_eq!(&s.data_bytes(&small), &poison_payload);
                continue;
            }
            prop_assert_eq!(
                s.data_bytes(&layout),
                expect[i].data_bytes(&layout),
                "stripe {} lost data across the unwind",
                i
            );
        }
    }
}

#[test]
fn bulk_steady_state_never_recompiles() {
    // After a warm-up call, bulk encode and bulk recovery are pure cache
    // hits: the global cache hands back pointer-identical programs.
    let layout = dcode(11).unwrap();
    let cols = [1usize, 4];
    let mut stripes = stripes_for(&layout, 32, 3, 9);
    encode_stripes(&layout, &mut stripes, 2);
    recover_stripes(&layout, &cols, &mut stripes, 2).unwrap();
    let encode = cache::global().encode_program(&layout);
    let recover = cache::global().column_program(&layout, &cols).unwrap();
    let hits_before = cache::global().stats().hits;
    for _ in 0..3 {
        encode_stripes(&layout, &mut stripes, 2);
        recover_stripes(&layout, &cols, &mut stripes, 2).unwrap();
    }
    assert!(Arc::ptr_eq(
        &encode,
        &cache::global().encode_program(&layout)
    ));
    assert!(Arc::ptr_eq(
        &recover.program,
        &cache::global()
            .column_program(&layout, &cols)
            .unwrap()
            .program
    ));
    assert!(
        cache::global().stats().hits >= hits_before + 8,
        "bulk entry points bypassed the schedule cache"
    );
}
