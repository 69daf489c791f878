//! Plan-driven erasure decoding over real blocks.
//!
//! The symbolic [`RecoveryPlan`] from `dcode-core` is replayed over a
//! [`Stripe`]: each step XORs its source blocks into the target block.
//! Step order guarantees every source is either a surviving block or an
//! already-recovered target.

use crate::cache;
use crate::schedule::XorProgram;
use crate::stripe::Stripe;
use crate::xor::xor_into;
use dcode_core::decoder::{RecoveryPlan, Unrecoverable};
use dcode_core::layout::CodeLayout;

/// Execute a recovery plan: rebuild every erased block in place, by
/// compiling the plan to a flat [`XorProgram`] and replaying it.
///
/// This is the generic entry point for *arbitrary* plans and compiles per
/// call. Steady-state paths keyed by layout + erased columns —
/// [`recover_columns`] here, `ResilientArray`'s degraded reads — go
/// through the [`ScheduleCache`](crate::cache::ScheduleCache) instead and
/// never recompile.
pub fn apply_plan(stripe: &mut Stripe, plan: &RecoveryPlan) {
    XorProgram::compile_plan(stripe.grid(), plan).run(stripe);
}

/// The original step-by-step interpreter for recovery plans. Kept as the
/// differential-test oracle for [`apply_plan`] — outputs are
/// byte-identical.
pub fn apply_plan_naive(stripe: &mut Stripe, plan: &RecoveryPlan) {
    for step in &plan.steps {
        let mut acc = vec![0u8; stripe.block_size()];
        for &src in &step.sources {
            xor_into(&mut acc, stripe.block(src));
        }
        stripe.block_mut(step.target).copy_from_slice(&acc);
    }
}

/// The erased-column set the [`ScheduleCache`](crate::cache::ScheduleCache)
/// keys recoveries by: `cols` sorted ascending with duplicates dropped.
/// Shared by [`recover_columns`] and
/// [`recover_stripes`](crate::bulk::recover_stripes).
///
/// # Panics
/// If a column is not a disk of `layout`.
pub(crate) fn normalize_columns(layout: &CodeLayout, cols: &[usize]) -> Vec<usize> {
    for &col in cols {
        assert!(col < layout.disks(), "disk {col} out of range");
    }
    let mut cols = cols.to_vec();
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Convenience: erase `failed_cols` in the stripe and rebuild them, using
/// the globally cached compiled recovery program for this
/// `(layout, column set)` — repeated recoveries off the same failure
/// pattern compile nothing.
///
/// Returns the plan used, so callers can inspect the read footprint.
pub fn recover_columns(
    layout: &CodeLayout,
    stripe: &mut Stripe,
    failed_cols: &[usize],
) -> Result<RecoveryPlan, Unrecoverable> {
    let compiled =
        cache::global().column_program(layout, &normalize_columns(layout, failed_cols))?;
    stripe.erase_columns(failed_cols);
    compiled.program.run(stripe);
    Ok((*compiled.plan).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode, verify_parities};
    use dcode_baselines::registry::all_codes;

    fn payload(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn every_code_survives_every_double_failure() {
        for p in [5usize, 7] {
            for layout in all_codes(p) {
                let data = payload(layout.data_len() * 8, p as u64);
                let mut stripe = Stripe::from_data(&layout, 8, &data);
                encode(&layout, &mut stripe);
                let golden = stripe.clone();
                for c1 in 0..layout.disks() {
                    for c2 in c1 + 1..layout.disks() {
                        let mut s = golden.clone();
                        recover_columns(&layout, &mut s, &[c1, c2]).unwrap_or_else(|e| {
                            panic!("{} p={p} cols=({c1},{c2}): {e}", layout.name())
                        });
                        assert_eq!(s, golden, "{} p={p} cols=({c1},{c2})", layout.name());
                        assert!(verify_parities(&layout, &s));
                    }
                }
            }
        }
    }

    #[test]
    fn single_failures_recover_too() {
        for layout in all_codes(11) {
            let data = payload(layout.data_len() * 32, 7);
            let mut stripe = Stripe::from_data(&layout, 32, &data);
            encode(&layout, &mut stripe);
            let golden = stripe.clone();
            for c in 0..layout.disks() {
                let mut s = golden.clone();
                recover_columns(&layout, &mut s, &[c]).unwrap();
                assert_eq!(s, golden, "{} col={c}", layout.name());
            }
        }
    }

    #[test]
    fn triple_failure_is_rejected() {
        let layout = dcode_core::dcode::dcode(7).unwrap();
        let mut stripe = Stripe::zeroed(&layout, 8);
        encode(&layout, &mut stripe);
        assert!(recover_columns(&layout, &mut stripe, &[0, 1, 2]).is_err());
    }
}
