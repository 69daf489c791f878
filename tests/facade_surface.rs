//! Facade-level smoke of the newer public surfaces: spec parsing, sharing
//! analysis, exact fault tolerance, trace replay, bulk encoding, and the
//! Reed–Solomon baseline — everything reachable from the `dcode` crate.

use dcode::baselines::registry::{build, CodeId};
use dcode::baselines::{shortened_evenodd, shortened_rdp};
use dcode::codec::rs::{Erasure, RsRaid6};
use dcode::codec::{encode_stripes, verify_parities, Stripe};
use dcode::core::analysis::adjacent_sharing_probability;
use dcode::core::mds::fault_tolerance;
use dcode::core::spec::{format_spec, parse_spec};

#[test]
fn spec_roundtrip_for_every_registered_code() {
    for &id in &dcode::baselines::registry::ALL_CODES {
        let original = build(id, 7).unwrap();
        let parsed = parse_spec(&format_spec(&original)).unwrap();
        assert_eq!(parsed.disks(), original.disks(), "{}", id.name());
        assert_eq!(parsed.data_len(), original.data_len(), "{}", id.name());
        assert_eq!(fault_tolerance(&parsed), 2, "{}", id.name());
    }
}

#[test]
fn sharing_probability_orders_the_codes_as_the_paper_argues() {
    // Horizontal-parity codes share heavily; diagonal-only codes barely.
    let p = 11;
    let prob = |id: CodeId| adjacent_sharing_probability(&build(id, p).unwrap());
    assert!(prob(CodeId::HCode) > 0.8);
    assert!(prob(CodeId::Rdp) > 0.8);
    assert!(prob(CodeId::DCode) > 0.8);
    assert!(prob(CodeId::XCode) < 0.1);
    assert!(prob(CodeId::Hdp) < 0.1); // diagonal stripe mapping
}

#[test]
fn shortened_codes_give_arbitrary_disk_counts() {
    for disks in 4..=12 {
        assert_eq!(shortened_rdp(disks).unwrap().disks(), disks);
        assert_eq!(shortened_evenodd(disks).unwrap().disks(), disks);
    }
    // D-Code itself exists only at primes — the trade-off in one assert.
    assert!(dcode::core::dcode::dcode(9).is_err());
}

#[test]
fn bulk_encode_roundtrip_through_facade() {
    let layout = build(CodeId::DCode, 7).unwrap();
    let payload: Vec<u8> = (0..100_000).map(|i| (i % 241) as u8).collect();
    let mut stripes: Vec<Stripe> = payload
        .chunks(layout.data_len() * 1024)
        .map(|chunk| Stripe::from_data(&layout, 1024, chunk))
        .collect();
    encode_stripes(&layout, &mut stripes, 4);
    assert!(stripes.iter().all(|s| verify_parities(&layout, s)));
    let mut back: Vec<u8> = stripes.iter().flat_map(|s| s.data_bytes(&layout)).collect();
    back.truncate(payload.len());
    assert_eq!(back, payload);
}

#[test]
fn rs_baseline_recovers_like_the_array_codes() {
    let rs = RsRaid6::new(9, 512);
    let data: Vec<Vec<u8>> = (0..9).map(|k| vec![k as u8 + 1; 512]).collect();
    let (p, q) = rs.encode(&data);
    let mut d = data.clone();
    d[2].fill(0);
    d[7].fill(0);
    let (mut pp, mut qq) = (p.clone(), q.clone());
    rs.decode(&mut d, &mut pp, &mut qq, Erasure::TwoData(2, 7));
    assert_eq!(d, data);
}

#[test]
fn exact_tolerance_of_spec_defined_raid5_is_one() {
    let l = parse_spec(
        "name = r5\nrows = 2\ncols = 3\nrow (0,2) = (0,0) (0,1)\nrow (1,2) = (1,0) (1,1)\n",
    )
    .unwrap();
    assert_eq!(fault_tolerance(&l), 1);
}
