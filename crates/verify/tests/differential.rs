//! Differential tests: the verifier's *static* numbers against the
//! *dynamic* truth.
//!
//! * An instrumented interpreter replays compiled programs byte-for-byte,
//!   counting XOR block-ops as it goes; its count must equal
//!   [`program_xor_cost`] and its bytes must equal the production
//!   executor's, for every registry code, encode and every 2-column
//!   erasure (property-based over code x prime x erasure pair).
//! * The static degraded-read footprint equals `dcode-iosim`'s dynamic
//!   accounting, disk for disk.

use dcode_baselines::registry::all_codes;
use dcode_codec::{Stripe, XorProgram};
use dcode_core::decoder::plan_column_recovery;
use dcode_core::layout::CodeLayout;
use dcode_verify::{degraded_read_footprint, program_xor_cost};
use proptest::prelude::*;

const PRIMES: [usize; 4] = [5, 7, 11, 13];
const BLOCK: usize = 16;

/// Replay `program` over `stripe` exactly as the executor specifies (copy
/// the first source over the target, XOR in the rest), counting XOR
/// block-ops. This is the verifier's cost model made executable.
fn interpret_counting(program: &XorProgram, stripe: &mut Stripe) -> usize {
    let grid = stripe.grid();
    let mut xors = 0usize;
    for op in 0..program.op_count() {
        let srcs = program.op_sources(op);
        let mut acc = stripe.snapshot(grid.cell_at(srcs[0] as usize));
        for &s in &srcs[1..] {
            for (a, &b) in acc.iter_mut().zip(stripe.block(grid.cell_at(s as usize))) {
                *a ^= b;
            }
            xors += 1;
        }
        stripe
            .block_mut(grid.cell_at(program.op_target(op)))
            .copy_from_slice(&acc);
    }
    xors
}

fn filled_stripe(layout: &CodeLayout, seed: u8) -> Stripe {
    let data: Vec<u8> = (0..layout.data_len() * BLOCK)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect();
    Stripe::from_data(layout, BLOCK, &data)
}

fn stripes_equal(a: &Stripe, b: &Stripe) -> bool {
    let grid = a.grid();
    (0..grid.len()).all(|i| a.block(grid.cell_at(i)) == b.block(grid.cell_at(i)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(28))]

    /// Encode: interpreter bytes == executor bytes, interpreter XOR count
    /// == static cost, for a random registry code and prime.
    #[test]
    fn static_encode_cost_matches_instrumented_run(
        code_idx in 0usize..7,
        p_idx in 0usize..4,
        seed in 0u8..255,
    ) {
        let layout = all_codes(PRIMES[p_idx]).swap_remove(code_idx);
        let program = XorProgram::compile_encode(&layout);

        let mut by_interp = filled_stripe(&layout, seed);
        let xors = interpret_counting(&program, &mut by_interp);
        prop_assert_eq!(xors, program_xor_cost(&program));

        let mut by_exec = filled_stripe(&layout, seed);
        program.run(&mut by_exec);
        prop_assert!(stripes_equal(&by_interp, &by_exec));
    }

    /// Recovery: same property over a random 2-column erasure, and the
    /// recovered stripe must equal the pre-erasure stripe.
    #[test]
    fn static_recovery_cost_matches_instrumented_run(
        code_idx in 0usize..7,
        p_idx in 0usize..4,
        pair in 0usize..1000,
        seed in 0u8..255,
    ) {
        let layout = all_codes(PRIMES[p_idx]).swap_remove(code_idx);
        let disks = layout.disks();
        let c1 = pair % disks;
        let c2 = (c1 + 1 + (pair / disks) % (disks - 1)) % disks;
        let (c1, c2) = (c1.min(c2), c1.max(c2));
        let plan = plan_column_recovery(&layout, &[c1, c2]).unwrap();
        let program = XorProgram::compile_plan(layout.grid(), &plan);

        let mut pristine = filled_stripe(&layout, seed);
        XorProgram::compile_encode(&layout).run(&mut pristine);

        let mut by_interp = pristine.clone();
        by_interp.erase_columns(&[c1, c2]);
        let xors = interpret_counting(&program, &mut by_interp);
        prop_assert_eq!(xors, program_xor_cost(&program));
        prop_assert_eq!(xors, plan.xor_count());
        prop_assert!(stripes_equal(&by_interp, &pristine));

        let mut by_exec = pristine.clone();
        by_exec.erase_columns(&[c1, c2]);
        program.run(&mut by_exec);
        prop_assert!(stripes_equal(&by_exec, &pristine));
    }
}

/// The static degraded-read footprint against iosim's dynamic accounting
/// of the same full-stripe read: disk for disk, the same reads.
#[test]
fn static_degraded_footprint_equals_iosim() {
    for p in [5usize, 7, 11] {
        for layout in all_codes(p) {
            for failed in 0..layout.disks() {
                let dynamic =
                    dcode_iosim::degraded_read_accesses(&layout, 0, layout.data_len(), failed);
                let fixed = degraded_read_footprint(&layout, failed);
                assert_eq!(
                    fixed.reads,
                    dynamic,
                    "{} p={p} failed={failed}",
                    layout.name()
                );
                assert_eq!(fixed.reads.per_disk[failed], 0);
            }
        }
    }
}
