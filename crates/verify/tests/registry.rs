//! The PR's acceptance bar: every registry code at every evaluated prime
//! proves clean — MDS by rank, encode-program equivalence, hazard-free
//! levels, and symbolically-correct recovery for every 2-column erasure
//! and every single-column minimum-read rebuild.

use dcode_baselines::registry::{build, ALL_CODES};
use dcode_verify::verify_layout;

/// The paper's primes plus one beyond (`17`), per the verification issue.
const VERIFIED_PRIMES: [usize; 5] = [5, 7, 11, 13, 17];

#[test]
fn every_registry_code_verifies_at_every_prime() {
    for p in VERIFIED_PRIMES {
        for &id in &ALL_CODES {
            let layout = build(id, p).unwrap();
            let report = verify_layout(&layout);
            assert!(
                report.is_clean(),
                "{} p={p}: {:#?}",
                id.name(),
                report.diagnostics
            );
            let pairs = layout.disks() * (layout.disks() - 1) / 2;
            assert_eq!(report.plans_verified, pairs, "{} p={p}", id.name());
            assert_eq!(report.rebuild_plans_verified, layout.disks());
            assert_eq!(report.encode_ops, layout.equations().len());
        }
    }
}
