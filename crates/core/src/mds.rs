//! Exhaustive fault-tolerance verification, by rank over GF(2).
//!
//! A RAID-6 code must survive *any* two concurrent disk failures. An erasure
//! is recoverable iff the parity equations restricted to the lost cells have
//! full column rank over GF(2) — the algebraic argument behind the MDS
//! proofs of the array-code literature, run directly on the layout. One
//! word-packed Gauss-Jordan elimination per failure scenario (the decoder's
//! own, so the verdict is the planner's) makes it cheap to check every
//! single column and every pair outright. The checker is used in the test
//! suite of every code in the workspace — including the H-Code/HDP
//! reconstructions, where it is the acceptance criterion (see DESIGN.md §5).

use crate::decoder::gauss_jordan;
use crate::grid::Cell;
use crate::layout::CodeLayout;
use std::collections::BTreeSet;
use std::fmt;

/// A failure scenario the code could not recover from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MdsViolation {
    /// The failed disks, ascending.
    pub failed: Vec<usize>,
    /// How many lost cells stay undetermined (column-rank deficiency).
    pub deficiency: usize,
}

impl fmt::Display for MdsViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "failure of disks {:?} unrecoverable ({} cells undetermined)",
            self.failed, self.deficiency
        )
    }
}

impl std::error::Error for MdsViolation {}

/// Column-rank deficiency of the equation system restricted to `erased`:
/// `0` means the erasure is uniquely solvable (recoverable); `k > 0` means
/// `k` lost cells stay undetermined.
///
/// # Panics
/// Panics if `erased` names cells outside the layout's grid.
pub fn rank_deficiency(layout: &CodeLayout, erased: &BTreeSet<Cell>) -> usize {
    let unknowns: Vec<Cell> = erased.iter().copied().collect();
    let rank = gauss_jordan(layout, &unknowns)
        .pivot_row_of_col
        .iter()
        .flatten()
        .count();
    unknowns.len() - rank
}

fn column_deficiency(layout: &CodeLayout, cols: &[usize]) -> usize {
    let grid = layout.grid();
    let erased = cols.iter().flat_map(|&c| grid.column(c)).collect();
    rank_deficiency(layout, &erased)
}

/// Whether the erasure of the whole disks `cols` is recoverable.
///
/// # Panics
/// Panics if any entry of `cols` is not a valid disk index.
pub fn columns_recoverable(layout: &CodeLayout, cols: &[usize]) -> bool {
    column_deficiency(layout, cols) == 0
}

/// Erase every `t`-subset of the disks, in lexicographic order, and report
/// the first that leaves lost cells undetermined.
fn first_violation(layout: &CodeLayout, t: usize) -> Result<(), MdsViolation> {
    fn walk(
        layout: &CodeLayout,
        chosen: &mut Vec<usize>,
        next: usize,
        remaining: usize,
    ) -> Result<(), MdsViolation> {
        if remaining == 0 {
            return match column_deficiency(layout, chosen) {
                0 => Ok(()),
                deficiency => Err(MdsViolation {
                    failed: chosen.clone(),
                    deficiency,
                }),
            };
        }
        for c in next..layout.disks().saturating_sub(remaining - 1) {
            chosen.push(c);
            walk(layout, chosen, c + 1, remaining - 1)?;
            chosen.pop();
        }
        Ok(())
    }
    walk(layout, &mut Vec::with_capacity(t), 0, t)
}

/// Verify both the fault-tolerance and the storage-optimality halves of the
/// MDS property:
///
/// * any 1 or 2 disk failures are recoverable (every single disk is tried
///   first, then every pair; the first failure found is reported), and
/// * the code stores the information-theoretic maximum of data for a
///   2-fault-tolerant array: a `data / total` fraction of exactly
///   `(disks − 2) / disks`.
///
/// # Panics
/// Panics if the layout is fault-tolerant but not storage-optimal — a
/// structurally different defect than the recoverability failures the
/// `Err` variant reports (the registry never constructs such a layout).
pub fn verify_mds(layout: &CodeLayout) -> Result<(), MdsViolation> {
    first_violation(layout, 1)?;
    first_violation(layout, 2)?;
    assert!(
        storage_is_optimal(layout),
        "{} stores {} data cells in a {}x{} stripe — not MDS-optimal",
        layout.name(),
        layout.data_len(),
        layout.rows(),
        layout.disks()
    );
    Ok(())
}

/// Whether the layout achieves the optimal RAID-6 storage rate
/// `(disks − 2) / disks` exactly (integer arithmetic, no rounding). A
/// layout of fewer than two disks cannot hold two parities and never does.
pub fn storage_is_optimal(layout: &CodeLayout) -> bool {
    let total = layout.grid().len();
    layout.disks() >= 2 && layout.data_len() * layout.disks() == total * (layout.disks() - 2)
}

/// The exact column-failure tolerance of a layout: the largest `t` such
/// that *every* set of `t` failed disks is recoverable. A RAID-6 MDS code
/// measures exactly 2; useful for probing custom codes defined via
/// [`crate::spec::parse_spec`]. Checking `t` costs C(disks, t) eliminations.
///
/// ```
/// use dcode_core::dcode::dcode;
/// use dcode_core::mds::fault_tolerance;
/// assert_eq!(fault_tolerance(&dcode(7).unwrap()), 2);
/// ```
pub fn fault_tolerance(layout: &CodeLayout) -> usize {
    let mut t = 0;
    while t < layout.disks() && first_violation(layout, t + 1).is_ok() {
        t += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcode::{dcode, xcode, PAPER_PRIMES};
    use crate::equation::EquationKind;
    use crate::layout::LayoutBuilder;

    /// Two rows of RAID-5 over four disks: one parity family.
    fn raid5_toy() -> CodeLayout {
        let mut b = LayoutBuilder::new("raid5", 5, 2, 4);
        for r in 0..2 {
            b.equation(
                EquationKind::Row,
                Cell::new(r, 3),
                vec![Cell::new(r, 0), Cell::new(r, 1), Cell::new(r, 2)],
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn dcode_is_mds_for_paper_primes() {
        for n in PAPER_PRIMES {
            verify_mds(&dcode(n).unwrap()).unwrap();
        }
    }

    #[test]
    fn dcode_is_mds_for_larger_primes() {
        for n in [17usize, 19, 23] {
            verify_mds(&dcode(n).unwrap()).unwrap();
        }
    }

    #[test]
    fn xcode_is_mds_for_paper_primes() {
        for n in PAPER_PRIMES {
            verify_mds(&xcode(n).unwrap()).unwrap();
        }
    }

    #[test]
    fn raid5_style_layout_fails_double_fault() {
        // Single parity family cannot survive two failures; the checker
        // must say so, on the first pair, with both lost rows undetermined.
        let l = raid5_toy();
        assert!((0..l.disks()).all(|c| columns_recoverable(&l, &[c])));
        let v = verify_mds(&l).unwrap_err();
        assert_eq!(v.failed, vec![0, 1]);
        assert_eq!(v.deficiency, 2);
    }

    #[test]
    fn the_walk_reaches_the_last_pair() {
        // Two copies of one parity over the data disks 2 and 3: every set
        // but {2, 3} is recoverable, and losing both leaves their XOR only.
        let d = [Cell::new(0, 2), Cell::new(0, 3)];
        let mut b = LayoutBuilder::new("twin", 5, 1, 4);
        b.equation(EquationKind::Row, Cell::new(0, 0), d.to_vec());
        b.equation(EquationKind::Diagonal, Cell::new(0, 1), d.to_vec());
        let l = b.build().unwrap();
        let v = verify_mds(&l).unwrap_err();
        assert_eq!((v.failed, v.deficiency), (vec![2, 3], 1));
        assert_eq!(fault_tolerance(&l), 1);
    }

    #[test]
    fn three_columns_exceed_raid6_rank() {
        let layout = dcode(7).unwrap();
        assert!(!columns_recoverable(&layout, &[0, 1, 2]));
        assert!(columns_recoverable(&layout, &[0, 6]));
    }

    #[test]
    fn exact_tolerance_is_two_for_raid6_codes() {
        // Exactly 2 — never 3 (MDS distance), never 1.
        for n in [5usize, 7] {
            assert_eq!(fault_tolerance(&dcode(n).unwrap()), 2, "D-Code n={n}");
            assert_eq!(fault_tolerance(&xcode(n).unwrap()), 2, "X-Code n={n}");
        }
    }

    #[test]
    fn raid5_toy_measures_tolerance_one() {
        assert_eq!(fault_tolerance(&raid5_toy()), 1);
    }

    #[test]
    fn storage_optimality_detects_waste() {
        // Mirror-ish layout: 1 data, 2 parities covering it.
        let mut b = LayoutBuilder::new("waste", 3, 1, 3);
        b.equation(EquationKind::Row, Cell::new(0, 1), vec![Cell::new(0, 0)]);
        b.equation(
            EquationKind::Diagonal,
            Cell::new(0, 2),
            vec![Cell::new(0, 0)],
        );
        let l = b.build().unwrap();
        // 1 data / 3 total = (3-2)/3 → this one actually IS rate-optimal.
        assert!(storage_is_optimal(&l));
        verify_mds(&l).unwrap();
        // Six data cells of a 2x4 stripe leave room for one parity, not two.
        assert!(!storage_is_optimal(&raid5_toy()));
    }

    #[test]
    fn empty_erasure_has_no_deficiency() {
        assert_eq!(rank_deficiency(&dcode(5).unwrap(), &BTreeSet::new()), 0);
    }
}
