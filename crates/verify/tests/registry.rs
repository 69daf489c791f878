//! Every registry code at every evaluated prime verifies clean — MDS by
//! rank, lint-clean encode, recovery and rebuild programs, symbolic
//! equivalence for the encode, every 2-column erasure and every
//! single-column minimum-read rebuild, and every closed-form claim.

use dcode_baselines::registry::{build, ALL_CODES};
use dcode_verify::verify_layout;

/// The paper's primes plus one beyond (`17`).
const VERIFIED_PRIMES: [usize; 5] = [5, 7, 11, 13, 17];

#[test]
fn every_registry_code_verifies_at_every_prime() {
    for p in VERIFIED_PRIMES {
        for &id in &ALL_CODES {
            let layout = build(id, p).unwrap();
            let report = verify_layout(&layout);
            assert!(report.is_clean(), "{report}");
            assert!(!report.claims.is_empty(), "{} p={p}", id.name());
            let pairs = layout.disks() * (layout.disks() - 1) / 2;
            assert_eq!(report.recovery.plans, pairs, "{} p={p}", id.name());
            assert_eq!(report.encode.ops, layout.equations().len());
        }
    }
}
