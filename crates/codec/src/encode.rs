//! Full-stripe encoding.
//!
//! [`encode`] replays the layout's compiled
//! [`XorProgram`](crate::schedule::XorProgram) — flat index arrays, no
//! per-equation allocation — fetched from the process-wide
//! [`ScheduleCache`](crate::cache::ScheduleCache), so only the *first*
//! encode of a layout pays the compile; every later call is a cache hit.
//! [`encode_naive`] keeps the original interpreter (walk `encode_order`,
//! accumulate each equation into a fresh buffer) as the differential-test
//! oracle: the two are byte-identical. Many stripes at once go through
//! [`crate::bulk`], which fans whole stripes — not levels — out over the
//! worker pool.

use crate::cache;
use crate::stripe::Stripe;
use crate::xor::{xor_gather_tiled, xor_into, TILE_BYTES};
use dcode_core::layout::CodeLayout;

/// Compute every parity block sequentially via a compiled schedule
/// (memoized in the global [`cache`]; steady-state calls compile nothing).
pub fn encode(layout: &CodeLayout, stripe: &mut Stripe) {
    cache::global().encode_program(layout).run(stripe);
}

/// The original interpreter: evaluate every equation in dependency order,
/// each into a fresh accumulator. Kept as the differential-test oracle for
/// [`encode`] — outputs are byte-identical.
pub fn encode_naive(layout: &CodeLayout, stripe: &mut Stripe) {
    for &eq_idx in layout.encode_order() {
        let eq = layout.equation(eq_idx);
        let mut acc = vec![0u8; stripe.block_size()];
        for &m in &eq.members {
            xor_into(&mut acc, stripe.block(m));
        }
        stripe.block_mut(eq.parity).copy_from_slice(&acc);
    }
}

/// Evaluate one equation into a fresh buffer (read-only stripe access).
fn eval_equation(layout: &CodeLayout, stripe: &Stripe, eq_idx: usize) -> Vec<u8> {
    let eq = layout.equation(eq_idx);
    let mut acc = vec![0u8; stripe.block_size()];
    xor_gather_tiled(&mut acc, &eq.members, |m| stripe.block(m), TILE_BYTES);
    acc
}

/// Verify that every parity block equals the XOR of its members — the
/// stripe-level consistency check used throughout the test suites.
pub fn verify_parities(layout: &CodeLayout, stripe: &Stripe) -> bool {
    layout.equations().iter().enumerate().all(|(i, eq)| {
        let acc = eval_equation(layout, stripe, i);
        acc.as_slice() == stripe.block(eq.parity)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_baselines::registry::all_codes;
    use dcode_core::dcode::dcode;

    fn pseudo_random_payload(len: usize, seed: u64) -> Vec<u8> {
        // Small deterministic LCG — keeps rand out of the unit tests.
        let mut x = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                (x >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn encode_satisfies_all_equations_for_every_code() {
        for p in [5usize, 7] {
            for layout in all_codes(p) {
                let payload = pseudo_random_payload(layout.data_len() * 16, p as u64);
                let mut s = Stripe::from_data(&layout, 16, &payload);
                assert!(!verify_parities(&layout, &s), "{}", layout.name());
                encode(&layout, &mut s);
                assert!(verify_parities(&layout, &s), "{}", layout.name());
                // Data untouched by encoding.
                assert_eq!(s.data_bytes(&layout), payload);
            }
        }
    }

    #[test]
    fn compiled_encode_matches_naive_oracle() {
        for p in [5usize, 7] {
            for layout in all_codes(p) {
                let payload = pseudo_random_payload(layout.data_len() * 24, 17 + p as u64);
                let mut naive = Stripe::from_data(&layout, 24, &payload);
                let mut compiled = naive.clone();
                encode_naive(&layout, &mut naive);
                encode(&layout, &mut compiled);
                assert_eq!(compiled, naive, "{} p={p}", layout.name());
            }
        }
    }

    #[test]
    fn encode_never_recompiles_in_steady_state() {
        // After a warm-up call, repeated encodes must be pure cache hits
        // (a frozen miss counter would be racy under parallel tests, so
        // the deterministic proof is pointer identity — the cache hands
        // back the same Arc'd program, and `encode` routes through it).
        use std::sync::Arc;
        let layout = dcode(7).unwrap();
        let mut s = Stripe::zeroed(&layout, 16);
        encode(&layout, &mut s); // warm: compiles at most once
        let a = cache::global().encode_program(&layout);
        let hits_before = cache::global().stats().hits;
        encode(&layout, &mut s);
        let b = cache::global().encode_program(&layout);
        assert!(Arc::ptr_eq(&a, &b), "steady-state encode recompiled");
        assert!(
            cache::global().stats().hits >= hits_before + 2,
            "encode bypassed the schedule cache"
        );
    }

    #[test]
    fn zero_stripe_encodes_to_zero_parities() {
        let layout = dcode(5).unwrap();
        let mut s = Stripe::zeroed(&layout, 8);
        encode(&layout, &mut s);
        for cell in layout.parity_cells() {
            assert!(s.block(cell).iter().all(|&b| b == 0));
        }
    }
}
