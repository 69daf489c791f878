//! Differential property tests for the optimizer tier: programs that
//! went through the full pass pipeline must be *byte-identical* to the
//! naive equation-by-equation oracles — `encode_naive` and
//! `apply_plan_naive` — across registry codes, primes, odd block sizes,
//! and every 2-column erasure. The symbolic
//! equivalence proofs live in `dcode-verify`; this file is the byte-level
//! cross-check that the proofs talk about the same executor semantics.

use dcode_baselines::registry::all_codes;
use dcode_codec::opt::{optimize, OptConfig};
use dcode_codec::{apply_plan_naive, encode_naive, Stripe, XorProgram};
use dcode_core::decoder::plan_column_recovery;
use dcode_core::layout::CodeLayout;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn payload(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(i as u64 | 1) >> 11) as u8)
        .collect()
}

fn pick_layout(p: usize, idx: usize) -> CodeLayout {
    let mut codes = all_codes(p);
    let n = codes.len();
    codes.swap_remove(idx % n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Optimized encode == the naive equation-by-equation encoder, for
    /// every registry code, sweep prime, and odd block size.
    #[test]
    fn optimized_encode_matches_naive_oracle(
        p_idx in 0usize..4,
        code_idx in 0usize..16,
        block_size in 1usize..120,
        seed in any::<u64>(),
    ) {
        let p = [5usize, 7, 11, 13][p_idx];
        let layout = pick_layout(p, code_idx);
        let program = XorProgram::compile_encode(&layout);
        let opt = optimize(&program, None, &OptConfig::full());
        prop_assert!(opt.certificate.holds(), "{}", layout.name());

        let data = payload(layout.data_len() * block_size, seed);
        let mut via_opt = Stripe::from_data(&layout, block_size, &data);
        let mut via_naive = via_opt.clone();
        opt.program.run(&mut via_opt);
        encode_naive(&layout, &mut via_naive);
        prop_assert_eq!(&via_opt, &via_naive, "{} p={p}", layout.name());
    }

    /// Optimized recovery programs == the naive plan replay, for every
    /// 2-column erasure of one (code, prime) draw — and both restore the
    /// pre-erasure bytes exactly.
    #[test]
    fn optimized_plans_match_naive_oracle_for_all_two_column_erasures(
        p_idx in 0usize..4,
        code_idx in 0usize..16,
        block_size in 1usize..48,
        seed in any::<u64>(),
    ) {
        let p = [5usize, 7, 11, 13][p_idx];
        let layout = pick_layout(p, code_idx);
        let grid = layout.grid();
        let mut golden = Stripe::from_data(
            &layout,
            block_size,
            &payload(layout.data_len() * block_size, seed),
        );
        encode_naive(&layout, &mut golden);

        for c1 in 0..layout.disks() {
            for c2 in c1 + 1..layout.disks() {
                let Ok(plan) = plan_column_recovery(&layout, &[c1, c2]) else {
                    continue; // a baseline outside its coverage; rank pass owns this
                };
                let program = XorProgram::compile_plan(grid, &plan);
                let outputs: BTreeSet<usize> =
                    plan.erased.iter().map(|&c| grid.index(c)).collect();
                let opt = optimize(&program, Some(&outputs), &OptConfig::full());
                prop_assert!(opt.certificate.holds(), "{} ({c1},{c2})", layout.name());

                let mut via_opt = golden.clone();
                via_opt.erase_columns(&[c1, c2]);
                let mut via_naive = via_opt.clone();
                opt.program.run(&mut via_opt);
                apply_plan_naive(&mut via_naive, &plan);
                prop_assert_eq!(&via_opt, &via_naive, "{} p={p} ({c1},{c2})", layout.name());
                prop_assert_eq!(&via_opt, &golden, "{} p={p} ({c1},{c2})", layout.name());
            }
        }
    }
}
