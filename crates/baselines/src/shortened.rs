//! Code shortening: horizontal codes at arbitrary disk counts.
//!
//! Array codes come in prime-parameterized sizes, but real arrays have
//! whatever disk count the chassis holds. *Horizontal* codes (RDP,
//! EVENODD) shorten cleanly: build the code for the smallest admissible
//! prime, then declare the surplus data columns permanently zero and drop
//! them — every equation simply loses its references to the dropped
//! columns, and the code's distance is preserved (erasing columns of an
//! MDS code cannot reduce the minimum distance of the remainder).
//!
//! *Vertical* codes cannot be shortened this way: their parities live in
//! the very columns one would drop. This asymmetry is a genuine limitation
//! of D-Code/X-Code-style designs — they exist only at prime disk counts —
//! and this module makes the trade-off concrete in code: the library can
//! build an `n`-disk array for any `n ≥ 4` with `shortened_rdp`, but only
//! prime `n` with D-Code.

use dcode_core::dcode::ConstructError;
use dcode_core::grid::Cell;
use dcode_core::layout::{CodeLayout, LayoutBuilder};
use dcode_core::modmath::is_prime;

use crate::evenodd::evenodd;
use crate::rdp::rdp;

/// The smallest prime `p` such that the given code family spans at least
/// `disks` disks at parameter `p`.
fn smallest_prime_with(mut p: usize, ok: impl Fn(usize) -> bool) -> usize {
    loop {
        if is_prime(p) && ok(p) {
            return p;
        }
        p += 1;
    }
}

/// Drop the highest-numbered data columns of a horizontal layout until
/// `disks` columns remain. `parity_cols` counts the dedicated parity disks
/// kept at the end of the column range.
fn shorten(full: &CodeLayout, disks: usize, parity_cols: usize, name: &str) -> CodeLayout {
    let drop = full.disks() - disks; // data columns to remove
    let data_cols = full.disks() - parity_cols;
    let keep = |c: Cell| c.col < data_cols - drop || c.col >= data_cols;
    let remap = |c: Cell| {
        if c.col >= data_cols {
            Cell::new(c.row, c.col - drop)
        } else {
            c
        }
    };
    let mut b = LayoutBuilder::new(name, full.prime(), full.rows(), disks);
    for eq in full.equations() {
        debug_assert!(keep(eq.parity), "parity columns are never dropped");
        let members: Vec<Cell> = eq
            .members
            .iter()
            .copied()
            .filter(|&m| keep(m))
            .map(remap)
            .collect();
        if members.is_empty() {
            continue; // equation covered only dropped (zero) columns
        }
        b.equation(eq.kind, remap(eq.parity), members);
    }
    b.build().expect("shortening preserves structural validity")
}

/// RDP shortened to exactly `disks` disks (`disks − 2` data + 2 parity).
/// Valid for any `disks ≥ 4`.
pub fn shortened_rdp(disks: usize) -> Result<CodeLayout, ConstructError> {
    if disks < 4 {
        return Err(ConstructError::TooSmall(disks));
    }
    // RDP(p) spans p+1 disks with p−1 data disks: need p−1 ≥ disks−2.
    let p = smallest_prime_with(3, |p| p + 1 >= disks);
    let full = rdp(p)?;
    Ok(shorten(&full, disks, 2, "RDP*"))
}

/// EVENODD shortened to exactly `disks` disks (`disks − 2` data + 2
/// parity). Valid for any `disks ≥ 4`.
pub fn shortened_evenodd(disks: usize) -> Result<CodeLayout, ConstructError> {
    if disks < 4 {
        return Err(ConstructError::TooSmall(disks));
    }
    // EVENODD(p) spans p+2 disks with p data disks: need p ≥ disks−2.
    let p = smallest_prime_with(3, |p| p + 2 >= disks);
    let full = evenodd(p)?;
    Ok(shorten(&full, disks, 2, "EVENODD*"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_core::mds::verify_mds;

    #[test]
    fn shortened_rdp_is_two_fault_tolerant_at_every_size() {
        for disks in 4..=16 {
            let l = shortened_rdp(disks).unwrap();
            assert_eq!(l.disks(), disks);
            verify_mds(&l).unwrap_or_else(|v| panic!("disks={disks}: {v}"));
        }
    }

    #[test]
    fn shortened_evenodd_is_two_fault_tolerant_at_every_size() {
        for disks in 4..=16 {
            let l = shortened_evenodd(disks).unwrap();
            assert_eq!(l.disks(), disks);
            verify_mds(&l).unwrap_or_else(|v| panic!("disks={disks}: {v}"));
        }
    }

    #[test]
    fn exact_prime_sizes_match_unshortened_rdp() {
        // When disks = p+1 exactly, shortening drops nothing.
        let full = rdp(7).unwrap();
        let short = shortened_rdp(8).unwrap();
        assert_eq!(short.disks(), full.disks());
        assert_eq!(short.data_len(), full.data_len());
        assert_eq!(short.equations().len(), full.equations().len());
    }

    #[test]
    fn shortened_capacity_shrinks_with_disks() {
        let a = shortened_rdp(6).unwrap();
        let b = shortened_rdp(8).unwrap();
        assert!(a.data_len() < b.data_len());
        // Data fraction: (disks−2)/disks is no longer achieved exactly when
        // rows come from a larger prime — shortening trades capacity for
        // flexibility.
        assert_eq!(a.data_len(), a.rows() * (6 - 2));
    }

    #[test]
    fn roundtrip_through_the_codec() {
        use dcode_codec::{encode, recover_columns, Stripe};
        for disks in [5usize, 6, 9, 12] {
            let l = shortened_rdp(disks).unwrap();
            let payload: Vec<u8> = (0..l.data_len() * 16)
                .map(|i| (i * 29 % 251) as u8)
                .collect();
            let mut s = Stripe::from_data(&l, 16, &payload);
            encode(&l, &mut s);
            let golden = s.clone();
            for c1 in 0..disks {
                for c2 in c1 + 1..disks {
                    let mut broken = golden.clone();
                    recover_columns(&l, &mut broken, &[c1, c2]).unwrap();
                    assert_eq!(broken, golden, "disks={disks} ({c1},{c2})");
                }
            }
        }
    }

    #[test]
    fn tiny_arrays_rejected() {
        assert!(shortened_rdp(3).is_err());
        assert!(shortened_evenodd(2).is_err());
    }
}
