//! Cross-crate integration: the byte engine round-trips real data through
//! every code, every failure pair, and random partial writes.

use dcode::baselines::registry::{build, ALL_CODES};
use dcode::codec::{
    apply_plan, encode, encode_naive, encode_with_matrix, generator_matrix, recover_columns,
    verify_parities, write_logical, Stripe,
};
use dcode::core::decoder::plan_recovery;
use dcode::core::PAPER_PRIMES;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn random_payload(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

#[test]
fn full_roundtrip_every_code_every_pair() {
    let mut rng = StdRng::seed_from_u64(0xD0C0DE);
    for p in [5usize, 7] {
        for &id in &ALL_CODES {
            let layout = build(id, p).unwrap();
            let block = 128;
            let payload = random_payload(&mut rng, layout.data_len() * block);
            let mut stripe = Stripe::from_data(&layout, block, &payload);
            encode(&layout, &mut stripe);
            let golden = stripe.clone();
            for c1 in 0..layout.disks() {
                for c2 in c1 + 1..layout.disks() {
                    let mut s = golden.clone();
                    recover_columns(&layout, &mut s, &[c1, c2]).unwrap();
                    assert_eq!(s, golden, "{} p={p} ({c1},{c2})", id.name());
                }
            }
            assert_eq!(golden.data_bytes(&layout), payload);
        }
    }
}

#[test]
fn three_encoder_backends_agree() {
    let mut rng = StdRng::seed_from_u64(7);
    for p in PAPER_PRIMES {
        for &id in &ALL_CODES {
            let layout = build(id, p).unwrap();
            let block = 64;
            let payload = random_payload(&mut rng, layout.data_len() * block);
            let base = Stripe::from_data(&layout, block, &payload);

            let mut seq = base.clone();
            encode(&layout, &mut seq);
            let mut naive = base.clone();
            encode_naive(&layout, &mut naive);
            let mut mat = base.clone();
            encode_with_matrix(&layout, &generator_matrix(&layout), &mut mat);

            assert_eq!(seq, naive, "{} p={p}: interpreter differs", id.name());
            assert_eq!(seq, mat, "{} p={p}: bit-matrix differs", id.name());
        }
    }
}

#[test]
fn random_partial_writes_keep_parities_consistent() {
    let mut rng = StdRng::seed_from_u64(99);
    for &id in &ALL_CODES {
        let layout = build(id, 7).unwrap();
        let block = 64;
        let payload = random_payload(&mut rng, layout.data_len() * block);
        let mut stripe = Stripe::from_data(&layout, block, &payload);
        encode(&layout, &mut stripe);

        for _ in 0..20 {
            let start = rng.gen_range(0..layout.data_len());
            let max_len = layout.data_len() - start;
            let len = rng.gen_range(1..=max_len.min(6));
            let bytes = random_payload(&mut rng, len * block);
            write_logical(&layout, &mut stripe, start, &bytes);
            assert!(
                verify_parities(&layout, &stripe),
                "{} after write",
                id.name()
            );
        }

        // After the write storm, the stripe still survives a double failure.
        let golden = stripe.clone();
        let mut s = golden.clone();
        recover_columns(&layout, &mut s, &[1, 3]).unwrap();
        assert_eq!(s, golden);
    }
}

#[test]
fn arbitrary_cell_erasures_within_two_columns_recover() {
    // Partial erasures (a subset of two columns' cells) also decode — the
    // planner handles any erasure pattern the column failures dominate.
    let mut rng = StdRng::seed_from_u64(1234);
    let layout = build(dcode::baselines::registry::CodeId::DCode, 7).unwrap();
    let block = 32;
    let payload = random_payload(&mut rng, layout.data_len() * block);
    let mut stripe = Stripe::from_data(&layout, block, &payload);
    encode(&layout, &mut stripe);
    let golden = stripe.clone();

    for _ in 0..50 {
        let c1 = rng.gen_range(0..7);
        let c2 = rng.gen_range(0..7);
        let cells: Vec<_> = layout
            .grid()
            .cells()
            .filter(|c| (c.col == c1 || c.col == c2) && rng.gen_bool(0.6))
            .collect();
        let erased: BTreeSet<_> = cells.iter().copied().collect();
        let plan = plan_recovery(&layout, &erased).unwrap();
        let mut s = golden.clone();
        s.erase_cells(&cells);
        apply_plan(&mut s, &plan);
        assert_eq!(s, golden);
    }
}
