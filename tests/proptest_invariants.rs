//! Property-based tests (proptest) over the core data structures and the
//! byte engine: random payloads, random failures, random write patterns.

use dcode::baselines::registry::{build, CodeId, ALL_CODES};
use dcode::codec::{encode, recover_columns, verify_parities, write_logical, Stripe};
use dcode::core::decoder::{plan_column_recovery, plan_recovery};
use dcode::core::grid::Cell;
use dcode::core::mds::rank_deficiency;
use dcode::iosim::access::{normal_read_accesses, segments, write_accesses};
use dcode::iosim::metrics::load_balancing_factor;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_code() -> impl Strategy<Value = CodeId> {
    prop::sample::select(ALL_CODES.to_vec())
}

fn arb_prime() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![5usize, 7, 11])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encode → erase any two columns → decode reproduces the exact stripe.
    #[test]
    fn roundtrip_any_code_any_failure(
        id in arb_code(),
        p in arb_prime(),
        seed in any::<u64>(),
        c1 in 0usize..16,
        c2 in 0usize..16,
    ) {
        let layout = build(id, p).unwrap();
        let disks = layout.disks();
        let (c1, c2) = (c1 % disks, c2 % disks);
        prop_assume!(c1 != c2);

        let block = 24;
        let mut x = seed | 1;
        let payload: Vec<u8> = (0..layout.data_len() * block).map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 37) as u8
        }).collect();
        let mut stripe = Stripe::from_data(&layout, block, &payload);
        encode(&layout, &mut stripe);
        let golden = stripe.clone();
        recover_columns(&layout, &mut stripe, &[c1, c2]).unwrap();
        prop_assert_eq!(stripe, golden);
    }

    /// Delta updates leave the stripe exactly as a full re-encode would.
    #[test]
    fn update_equals_reencode(
        id in arb_code(),
        start_frac in 0.0f64..1.0,
        len in 1usize..10,
        seed in any::<u64>(),
    ) {
        let layout = build(id, 7).unwrap();
        let block = 16;
        let start = ((layout.data_len() - 1) as f64 * start_frac) as usize;
        let len = len.min(layout.data_len() - start);

        let mut x = seed | 1;
        let mut bytes = |n: usize| -> Vec<u8> {
            (0..n).map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 29) as u8
            }).collect()
        };
        let payload = bytes(layout.data_len() * block);
        let mut live = Stripe::from_data(&layout, block, &payload);
        encode(&layout, &mut live);
        let new_data = bytes(len * block);
        write_logical(&layout, &mut live, start, &new_data);
        prop_assert!(verify_parities(&layout, &live));

        let mut fresh = Stripe::from_data(&layout, block, &live.data_bytes(&layout));
        encode(&layout, &mut fresh);
        prop_assert_eq!(live, fresh);
    }

    /// Triple-column erasures are always rejected (the code is exactly
    /// 2-fault tolerant, never accidentally 3-fault tolerant).
    #[test]
    fn triple_failures_always_rejected(
        id in arb_code(),
        p in arb_prime(),
        c in 0usize..16,
    ) {
        let layout = build(id, p).unwrap();
        let disks = layout.disks();
        let cols = [c % disks, (c + 1) % disks, (c + 2) % disks];
        prop_assert!(plan_column_recovery(&layout, &cols).is_err());
    }

    /// Cell-level erasures, the shape a degraded subprogram hands the
    /// decoder: the planner finds a plan exactly when the rank check says
    /// the erasure is recoverable, and a failed plan names stuck cells
    /// exactly when the rank is deficient. EVENODD is among the codes, so
    /// peeling stalls and the shared Gauss-Jordan elimination decides.
    #[test]
    fn rank_agrees_with_planner_on_cell_erasures(
        id in arb_code(),
        p in prop::sample::select(vec![5usize, 7]),
        seed in any::<u64>(),
        per_mille in 20u64..400,
    ) {
        let layout = build(id, p).unwrap();
        let mut x = seed | 1;
        let erased: BTreeSet<Cell> = layout.grid().cells().filter(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 1000 < per_mille
        }).collect();
        let deficiency = rank_deficiency(&layout, &erased);
        let planned = plan_recovery(&layout, &erased);
        prop_assert_eq!(planned.is_ok(), deficiency == 0);
        if let Err(e) = planned {
            prop_assert_eq!(!e.remaining.is_empty(), deficiency > 0);
        }
    }

    /// Read accounting: a normal read's total accesses equal its length,
    /// regardless of code, start, or wrap count.
    #[test]
    fn normal_read_cost_is_exact(
        id in arb_code(),
        start in 0usize..200,
        len in 1usize..60,
    ) {
        let layout = build(id, 7).unwrap();
        let acc = normal_read_accesses(&layout, start, len);
        prop_assert_eq!(acc.total() as usize, len);
    }

    /// Write accounting invariants: cost ≥ 2·(len + 1) (every write touches
    /// at least one parity) and LF of any single op is finite only when all
    /// disks participate.
    #[test]
    fn write_cost_lower_bound(
        id in arb_code(),
        start in 0usize..100,
        len in 1usize..30,
    ) {
        let layout = build(id, 7).unwrap();
        let acc = write_accesses(&layout, start, len);
        prop_assert!(acc.total() as usize >= 2 * (len + 1));
        let lf = load_balancing_factor(&acc);
        prop_assert!(lf >= 1.0 || lf.is_infinite());
    }

    /// Segment decomposition is a partition: lengths sum to the request and
    /// every boundary segment fits in one stripe.
    #[test]
    fn segments_partition_requests(
        data_len in 1usize..200,
        start in 0usize..500,
        len in 0usize..500,
    ) {
        let (full, segs) = segments(data_len, start, len);
        let seg_total: usize = segs.iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(full * data_len + seg_total, len);
        for (s, l) in segs {
            prop_assert!(l >= 1);
            prop_assert!(s + l <= data_len);
        }
    }
}
