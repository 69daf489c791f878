//! Property-based tests for the byte engine: XOR kernel algebra, stripe
//! storage, and encoder equivalences under random payloads.

use dcode_codec::xor::{xor_into, xor_into_from, xor_many_into, xor_many_into_tiled};
use dcode_codec::{encode, encode_with_matrix, generator_matrix, Stripe};
use proptest::prelude::*;

/// Scalar reference: fold all sources into a fresh buffer, byte by byte.
fn xor_many_scalar(len: usize, sources: &[&[u8]]) -> Vec<u8> {
    let mut out = vec![0u8; len];
    for s in sources {
        for (d, &b) in out.iter_mut().zip(s.iter()) {
            *d ^= b;
        }
    }
    out
}

fn pseudo_sources(len: usize, seeds: &[u64]) -> Vec<Vec<u8>> {
    seeds
        .iter()
        .map(|&s| {
            (0..len)
                .map(|i| (s.wrapping_mul(i as u64 | 1) >> 9) as u8)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// XOR is an involution: x ^= y twice restores x.
    #[test]
    fn xor_involution(a in prop::collection::vec(any::<u8>(), 0..512),
                      b_seed in any::<u64>()) {
        let b: Vec<u8> = a.iter().enumerate()
            .map(|(i, _)| (b_seed.wrapping_mul(i as u64 + 1) >> 13) as u8)
            .collect();
        let mut d = a.clone();
        xor_into(&mut d, &b);
        xor_into(&mut d, &b);
        prop_assert_eq!(d, a);
    }

    /// Kernel matches the scalar definition byte for byte.
    #[test]
    fn xor_matches_scalar(a in prop::collection::vec(any::<u8>(), 0..300),
                          seed in any::<u64>()) {
        let b: Vec<u8> = a.iter().enumerate()
            .map(|(i, _)| (seed.wrapping_add(i as u64 * 7919) >> 21) as u8)
            .collect();
        let mut d = a.clone();
        xor_into(&mut d, &b);
        let scalar: Vec<u8> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
        prop_assert_eq!(d, scalar);
    }

    /// `xor_many_into` is order-independent (XOR commutes).
    #[test]
    fn xor_many_commutes(len in 1usize..200, seeds in prop::collection::vec(any::<u64>(), 1..6)) {
        let sources: Vec<Vec<u8>> = seeds.iter()
            .map(|&s| (0..len).map(|i| (s.wrapping_mul(i as u64 + 3) >> 17) as u8).collect())
            .collect();
        let fwd: Vec<&[u8]> = sources.iter().map(std::vec::Vec::as_slice).collect();
        let rev: Vec<&[u8]> = sources.iter().rev().map(std::vec::Vec::as_slice).collect();
        let mut d1 = vec![0u8; len];
        let mut d2 = vec![0u8; len];
        xor_many_into(&mut d1, &fwd);
        xor_many_into(&mut d2, &rev);
        prop_assert_eq!(d1, d2);
    }

    /// `xor_into_from(d, a, b)` equals xoring into a copy.
    #[test]
    fn xor_into_from_consistent(a in prop::collection::vec(any::<u8>(), 0..128),
                                seed in any::<u64>()) {
        let b: Vec<u8> = a.iter().enumerate()
            .map(|(i, _)| (seed ^ (i as u64 * 2654435761)) as u8)
            .collect();
        let mut d1 = vec![0u8; a.len()];
        xor_into_from(&mut d1, &a, &b);
        let mut d2 = a.clone();
        xor_into(&mut d2, &b);
        prop_assert_eq!(d1, d2);
    }

    /// `xor_many_into` overwrites the destination: whatever garbage is in
    /// `dst` beforehand, the result is exactly the scalar fold of the
    /// sources. Exercises every fold tier (8/4/2/1) and odd tails — source
    /// counts up to 20, lengths not multiples of 8.
    #[test]
    fn xor_many_overwrites_dst(len in 0usize..600,
                               seeds in prop::collection::vec(any::<u64>(), 0..=20),
                               garbage in any::<u8>()) {
        let sources = pseudo_sources(len, &seeds);
        let refs: Vec<&[u8]> = sources.iter().map(std::vec::Vec::as_slice).collect();
        let mut d = vec![garbage; len];
        xor_many_into(&mut d, &refs);
        prop_assert_eq!(d, xor_many_scalar(len, &refs));
    }

    /// The tiled gather variant is byte-identical to `xor_many_into` for
    /// any tile size, source count, and tail length.
    #[test]
    fn xor_many_variants_agree(len in 0usize..600,
                               seeds in prop::collection::vec(any::<u64>(), 0..=20),
                               tile in 1usize..2048) {
        let sources = pseudo_sources(len, &seeds);
        let refs: Vec<&[u8]> = sources.iter().map(std::vec::Vec::as_slice).collect();
        let expect = xor_many_scalar(len, &refs);
        let mut tiled = vec![0x55u8; len];
        xor_many_into_tiled(&mut tiled, &refs, tile);
        prop_assert_eq!(&tiled, &expect);
    }

    /// Stripe data roundtrip for random payload lengths (with padding).
    #[test]
    fn stripe_payload_roundtrip(frac in 0.0f64..1.0, block in 1usize..64, seed in any::<u64>()) {
        let layout = dcode_core::dcode::dcode(7).unwrap();
        let max = layout.data_len() * block;
        let len = (max as f64 * frac) as usize;
        let payload: Vec<u8> = (0..len)
            .map(|i| (seed.wrapping_mul(i as u64 | 1) >> 11) as u8)
            .collect();
        let s = Stripe::from_data(&layout, block, &payload);
        let out = s.data_bytes(&layout);
        prop_assert_eq!(&out[..len], payload.as_slice());
        prop_assert!(out[len..].iter().all(|&b| b == 0));
    }

    /// The compiled and bit-matrix encoder backends agree on random data
    /// for D-Code and a parity-cascading code (RDP).
    #[test]
    fn encoder_backends_agree(seed in any::<u64>(), use_rdp in any::<bool>()) {
        let layout = if use_rdp {
            dcode_baselines::rdp::rdp(7).unwrap()
        } else {
            dcode_core::dcode::dcode(7).unwrap()
        };
        let block = 24;
        let payload: Vec<u8> = (0..layout.data_len() * block)
            .map(|i| (seed.wrapping_mul(i as u64 + 11) >> 19) as u8)
            .collect();
        let base = Stripe::from_data(&layout, block, &payload);
        let mut a = base.clone();
        encode(&layout, &mut a);
        let mut c = base.clone();
        encode_with_matrix(&layout, &generator_matrix(&layout), &mut c);
        prop_assert_eq!(&a, &c);
    }
}
