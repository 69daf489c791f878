//! Rotation load study — Section II's argument, quantified.
//!
//! The paper dismisses stripe-by-stripe rotation as a fix for unbalanced
//! codes: rotation averages parity placement *across* stripes, but stripes
//! have different access frequencies, so a skewed workload still hammers
//! whichever physical disks hold the hot stripes' parities. This module
//! maps per-stripe logical access counts through a [`RotationScheme`] onto
//! physical disks under a configurable stripe-popularity distribution, so
//! the claim becomes a measurement (see `dcode-bench -- rotation_study`).

use crate::rotation::RotationScheme;
use dcode_core::layout::CodeLayout;

/// How stripe access frequency is distributed.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum StripeSkew {
    /// Every stripe equally likely — rotation's best case.
    Uniform,
    /// Zipf-like skew with the given exponent (≥ 0; larger = hotter head).
    Zipf(f64),
    /// All traffic on one stripe — rotation's worst case.
    SingleHot,
}

impl StripeSkew {
    /// Relative weight of stripe `i` (unnormalized).
    pub fn weight(self, i: usize, _n: usize) -> f64 {
        match self {
            StripeSkew::Uniform => 1.0,
            StripeSkew::Zipf(s) => 1.0 / ((i + 1) as f64).powf(s),
            StripeSkew::SingleHot => {
                if i == 0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Combine one stripe's per-logical-column access counts into physical-disk
/// counts over `n_stripes` stripes weighted by `skew`.
pub fn physical_loads(
    layout: &CodeLayout,
    per_logical_col: &[f64],
    rotation: RotationScheme,
    n_stripes: usize,
    skew: StripeSkew,
) -> Vec<f64> {
    let disks = layout.disks();
    assert_eq!(per_logical_col.len(), disks);
    let mut physical = vec![0.0; disks];
    for s in 0..n_stripes {
        let w = skew.weight(s, n_stripes);
        for (col, &load) in per_logical_col.iter().enumerate() {
            physical[rotation.to_physical(s, col, disks)] += w * load;
        }
    }
    physical
}

/// Load-balancing factor of a physical load vector (∞ when a disk is idle).
pub fn lf(loads: &[f64]) -> f64 {
    let max = loads.iter().copied().fold(0.0, f64::max);
    let min = loads.iter().copied().fold(f64::INFINITY, f64::min);
    if min <= 0.0 {
        if max <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_core::dcode::dcode;

    /// An RDP-like skewed logical load: last two columns hot (parity disks
    /// under writes).
    fn skewed_load(disks: usize) -> Vec<f64> {
        (0..disks)
            .map(|c| if c >= disks - 2 { 5.0 } else { 1.0 })
            .collect()
    }

    #[test]
    fn rotation_balances_uniform_stripe_access() {
        let layout = dcode(7).unwrap();
        let load = skewed_load(7);
        let unrotated =
            physical_loads(&layout, &load, RotationScheme::None, 7, StripeSkew::Uniform);
        let rotated = physical_loads(
            &layout,
            &load,
            RotationScheme::PerStripe,
            7,
            StripeSkew::Uniform,
        );
        assert!(lf(&unrotated) > 4.9);
        // With stripes = a multiple of disks and uniform access, rotation
        // is perfect.
        assert!((lf(&rotated) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rotation_cannot_balance_a_hot_stripe() {
        // The paper's point: with one hot stripe, rotation leaves LF
        // exactly as bad as no rotation.
        let layout = dcode(7).unwrap();
        let load = skewed_load(7);
        let unrotated = physical_loads(
            &layout,
            &load,
            RotationScheme::None,
            7,
            StripeSkew::SingleHot,
        );
        let rotated = physical_loads(
            &layout,
            &load,
            RotationScheme::PerStripe,
            7,
            StripeSkew::SingleHot,
        );
        assert_eq!(lf(&unrotated), lf(&rotated));
        assert!(lf(&rotated) > 4.9);
    }

    #[test]
    fn zipf_skew_degrades_rotation_benefit_monotonically() {
        let layout = dcode(7).unwrap();
        let load = skewed_load(7);
        let lf_at = |s: f64| {
            lf(&physical_loads(
                &layout,
                &load,
                RotationScheme::PerStripe,
                70,
                StripeSkew::Zipf(s),
            ))
        };
        let mild = lf_at(0.5);
        let strong = lf_at(2.0);
        let extreme = lf_at(4.0);
        assert!(
            mild < strong && strong < extreme,
            "{mild} {strong} {extreme}"
        );
    }

    #[test]
    fn balanced_codes_do_not_need_rotation() {
        // D-Code's logical load is already flat, so LF ≈ 1 with or without
        // rotation, under any skew.
        let layout = dcode(7).unwrap();
        let flat = vec![1.0; 7];
        for skew in [
            StripeSkew::Uniform,
            StripeSkew::Zipf(2.0),
            StripeSkew::SingleHot,
        ] {
            for rot in [RotationScheme::None, RotationScheme::PerStripe] {
                let loads = physical_loads(&layout, &flat, rot, 16, skew);
                assert!((lf(&loads) - 1.0).abs() < 1e-9, "{skew:?} {rot:?}");
            }
        }
    }
}
