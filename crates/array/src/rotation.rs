//! Stripe-to-disk rotation schemes.
//!
//! Section II of the paper discusses the classic global balancing trick —
//! "rotating the mappings from logic disks to physical disks stripe by
//! stripe", as RAID-5 does — and argues it *cannot* fix RAID-6 imbalance
//! because stripes have different access frequencies: rotation averages
//! parity placement across stripes, but a hot stripe still hammers
//! whichever physical disks hold its parities. [`RotationScheme`] implements
//! both mappings so `dcode-bench -- rotation_study` can reproduce that argument
//! quantitatively.

/// How a stripe's logical columns map onto physical disks.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RotationScheme {
    /// Identity: logical column `c` is physical disk `c` in every stripe.
    None,
    /// Left-symmetric rotation: stripe `s` shifts its columns by `s`
    /// positions, so parity placement cycles across physical disks.
    PerStripe,
}

impl RotationScheme {
    /// Physical disk holding logical column `col` of stripe `stripe`.
    pub fn to_physical(self, stripe: usize, col: usize, disks: usize) -> usize {
        match self {
            RotationScheme::None => col,
            RotationScheme::PerStripe => (col + stripe) % disks,
        }
    }

    /// Logical column of stripe `stripe` stored on physical disk `disk`.
    pub fn to_logical(self, stripe: usize, disk: usize, disks: usize) -> usize {
        match self {
            RotationScheme::None => disk,
            RotationScheme::PerStripe => (disk + disks - stripe % disks) % disks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let r = RotationScheme::None;
        for s in 0..5 {
            for c in 0..7 {
                assert_eq!(r.to_physical(s, c, 7), c);
                assert_eq!(r.to_logical(s, c, 7), c);
            }
        }
    }

    #[test]
    fn per_stripe_is_a_bijection_and_inverts() {
        let r = RotationScheme::PerStripe;
        for s in 0..20 {
            let mut seen = [false; 7];
            for c in 0..7 {
                let p = r.to_physical(s, c, 7);
                assert!(!seen[p], "collision at stripe {s}");
                seen[p] = true;
                assert_eq!(r.to_logical(s, p, 7), c);
            }
        }
    }

    #[test]
    fn rotation_cycles_parity_position() {
        // The disk holding logical column 0 advances by one per stripe.
        let r = RotationScheme::PerStripe;
        let placements: Vec<usize> = (0..7).map(|s| r.to_physical(s, 0, 7)).collect();
        assert_eq!(placements, vec![0, 1, 2, 3, 4, 5, 6]);
    }
}
