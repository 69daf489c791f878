//! Cross-crate integration: every code in the registry is a genuine RAID-6
//! MDS code at every paper prime, with the complexity profile its paper
//! claims.
//!
//! The exhaustive erasure sweep is proved symbolically: a 2-column erasure
//! is recoverable iff the parity equations restricted to the lost cells
//! have full column rank over GF(2) (`dcode::core::mds::verify_mds`), which
//! checks all C(disks, 2) pairs without extracting a recovery plan or
//! touching a single payload byte. A differential test holds the rank
//! verdict to the planner's, and one byte-level smoke case per code keeps
//! the symbolic result anchored to the real codec (see EXPERIMENTS.md
//! "Static verification" for the timing against the planner-based sweep).

use dcode::baselines::registry::{build, CodeId, ALL_CODES};
use dcode::baselines::{shortened_evenodd, shortened_rdp};
use dcode::codec::{encode, recover_columns, Stripe};
use dcode::core::decoder::plan_column_recovery;
use dcode::core::layout::CodeLayout;
use dcode::core::mds::{columns_recoverable, storage_is_optimal, verify_mds};
use dcode::core::metrics::measure;
use dcode::core::PAPER_PRIMES;

#[test]
fn all_codes_all_paper_primes_are_mds() {
    for p in PAPER_PRIMES {
        for &id in &ALL_CODES {
            let layout = build(id, p).unwrap();
            verify_mds(&layout).unwrap_or_else(|v| panic!("{} p={p}: {v}", id.name()));
        }
    }
}

#[test]
fn all_codes_are_mds_at_larger_primes() {
    // The rank check is cheap enough to push the whole registry well past
    // the paper's primes, where the planner-based sweep grew quadratically
    // painful.
    for p in [17usize, 19, 23, 29, 31] {
        for &id in &ALL_CODES {
            let layout = build(id, p).unwrap();
            verify_mds(&layout).unwrap_or_else(|v| panic!("{} p={p}: {v}", id.name()));
        }
    }
}

/// Every 1-, 2- and 3-column set of `layout`: the rank verdict equals
/// whether the peeling planner, with its Gauss-Jordan fallback, finds a
/// plan.
fn assert_rank_agrees_with_planner(layout: &CodeLayout, what: &str) {
    let disks = layout.disks();
    let mut sets: Vec<Vec<usize>> = Vec::new();
    for c1 in 0..disks {
        sets.push(vec![c1]);
        for c2 in c1 + 1..disks {
            sets.push(vec![c1, c2]);
            sets.extend((c2 + 1..disks).map(|c3| vec![c1, c2, c3]));
        }
    }
    for cols in &sets {
        assert_eq!(
            columns_recoverable(layout, cols),
            plan_column_recovery(layout, cols).is_ok(),
            "{what} cols={cols:?}"
        );
    }
}

#[test]
fn rank_agrees_with_planner_for_every_code() {
    // Includes the EVENODD pairs where peeling stalls and the planner
    // needs its Gauss-Jordan fallback, and the triples no code survives.
    for p in [5usize, 7] {
        for &id in &ALL_CODES {
            let layout = build(id, p).unwrap();
            assert_rank_agrees_with_planner(&layout, &format!("{} p={p}", id.name()));
        }
    }
    for disks in 4..=16 {
        assert_rank_agrees_with_planner(&shortened_rdp(disks).unwrap(), &format!("RDP* {disks}"));
        assert_rank_agrees_with_planner(
            &shortened_evenodd(disks).unwrap(),
            &format!("EVENODD* {disks}"),
        );
    }
}

/// One byte-level round trip per code: encode a real payload, lose two
/// disks, recover, compare bytes. The symbolic rank proof above covers
/// every pair; this anchors it to the actual codec on one adversarial pair
/// (the first and last columns, which for every layout here include at
/// least one parity-bearing column).
#[test]
fn byte_level_smoke_one_pair_per_code() {
    let mut seed = 0x5eedu64;
    for &id in &ALL_CODES {
        let layout = build(id, 7).unwrap();
        let block = 64;
        let payload: Vec<u8> = (0..layout.data_len() * block)
            .map(|_| {
                // Tiny xorshift so each code sees a distinct payload.
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect();
        let mut stripe = Stripe::from_data(&layout, block, &payload);
        encode(&layout, &mut stripe);
        let lost = [0, layout.disks() - 1];
        recover_columns(&layout, &mut stripe, &lost)
            .unwrap_or_else(|e| panic!("{}: {e}", id.name()));
        assert_eq!(stripe.data_bytes(&layout), payload, "{}", id.name());
    }
}

#[test]
fn storage_rates_are_mds_optimal() {
    for p in PAPER_PRIMES {
        for &id in &ALL_CODES {
            let layout = build(id, p).unwrap();
            assert!(storage_is_optimal(&layout), "{} p={p}", id.name());
        }
    }
}

#[test]
fn vertical_codes_hit_optimal_update_complexity_and_rdp_does_not() {
    for p in PAPER_PRIMES {
        let d = measure(&build(CodeId::DCode, p).unwrap());
        assert!((d.avg_update_complexity - 2.0).abs() < 1e-9, "D-Code p={p}");
        assert_eq!(d.max_update_complexity, 2);

        let x = measure(&build(CodeId::XCode, p).unwrap());
        assert!((x.avg_update_complexity - 2.0).abs() < 1e-9, "X-Code p={p}");

        let h = measure(&build(CodeId::HCode, p).unwrap());
        assert!((h.avg_update_complexity - 2.0).abs() < 1e-9, "H-Code p={p}");

        // RDP's diagonal-over-row-parity cascade and HDP's coupling exceed 2.
        let r = measure(&build(CodeId::Rdp, p).unwrap());
        assert!(r.avg_update_complexity > 2.0, "RDP p={p}");
        let hdp = measure(&build(CodeId::Hdp, p).unwrap());
        assert!(hdp.avg_update_complexity > 2.0, "HDP p={p}");
    }
}

#[test]
fn dcode_complexities_match_section_3d_closed_forms() {
    for p in PAPER_PRIMES {
        let m = measure(&build(CodeId::DCode, p).unwrap());
        let n = p as f64;
        assert!((m.encode_xors_per_data_element - (2.0 - 2.0 / (n - 2.0))).abs() < 1e-9);
        assert!((m.decode_xors_per_lost_element - (n - 3.0)).abs() < 1e-9);
    }
}

#[test]
fn disk_counts_match_section_4a() {
    for p in PAPER_PRIMES {
        assert_eq!(build(CodeId::Rdp, p).unwrap().disks(), p + 1);
        assert_eq!(build(CodeId::HCode, p).unwrap().disks(), p + 1);
        assert_eq!(build(CodeId::Hdp, p).unwrap().disks(), p - 1);
        assert_eq!(build(CodeId::XCode, p).unwrap().disks(), p);
        assert_eq!(build(CodeId::DCode, p).unwrap().disks(), p);
        assert_eq!(build(CodeId::EvenOdd, p).unwrap().disks(), p + 2);
    }
}
