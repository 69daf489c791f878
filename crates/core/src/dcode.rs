//! The paper's contribution: **D-Code** (Deployment Code).
//!
//! A stripe is an `n × n` matrix (`n` prime, `n ≥ 5`). Rows `0..n-3` hold
//! data; row `n-2` holds *horizontal* parities (each covering `n-2`
//! logically-continuous data elements, wrapping row-major); row `n-1` holds
//! *deployment* parities (diagonal-style parities whose members are laid out
//! by the paper's down-left deployment walk).
//!
//! Three independent constructions are provided and tested equal:
//!
//! 1. [`dcode`] — the closed-form encoding rules, equations (1) and (2) of
//!    the paper;
//! 2. [`dcode_procedural`] — the 4-step numbering/labelling procedure
//!    (Section III-A's operational description);
//! 3. [`dcode_via_xcode_reordering`] — Theorem 1's construction: reorder the
//!    elements of each X-Code column with `E(i,j) ↦ N(⟨(n−3)/2·(j−i)⟩_{n−2}, j)`.
//!
//! Their agreement (checked in the test suite for every supported prime) is
//! the strongest evidence available that this crate implements the paper's
//! code exactly, and Theorem 1 + the X-Code MDS property give the
//! fault-tolerance proof, which [`crate::mds::verify_mds`] re-checks
//! exhaustively: every single and every pair of lost columns leaves a
//! full-rank GF(2) system.

use crate::equation::EquationKind;
use crate::grid::Cell;
use crate::layout::{CodeLayout, LayoutBuilder};
use crate::modmath::{is_prime, md};

/// Errors constructing a D-Code (or X-Code style) layout.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConstructError {
    /// The stripe parameter must be a prime number (Theorem 2).
    NotPrime(usize),
    /// Primes below 5 give degenerate stripes with no or trivial data rows.
    TooSmall(usize),
}

impl std::fmt::Display for ConstructError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstructError::NotPrime(n) => {
                write!(
                    f,
                    "stripe parameter {n} is not prime (required by Theorem 2)"
                )
            }
            ConstructError::TooSmall(n) => write!(f, "stripe parameter {n} is below 5"),
        }
    }
}

impl std::error::Error for ConstructError {}

fn check_param(n: usize) -> Result<(), ConstructError> {
    if !is_prime(n) {
        return Err(ConstructError::NotPrime(n));
    }
    if n < 5 {
        return Err(ConstructError::TooSmall(n));
    }
    Ok(())
}

/// Build D-Code over `n` disks from the paper's closed-form encoding rules.
///
/// Equation (1), horizontal parities (row `n−2`):
///
/// ```text
/// P[n−2][i] = ⊕_{j=0}^{n−3}  D[ ⟨(n−3)/2 · (⟨i+j+2⟩ₙ − j)⟩_{n−2} ][ ⟨i+j+2⟩ₙ ]
/// ```
///
/// Equation (2), deployment parities (row `n−1`):
///
/// ```text
/// P[n−1][i] = ⊕_{j=0}^{n−3}  D[ ⟨(n−3)/2 · (⟨i−j−2⟩ₙ − j)⟩_{n−2} ][ ⟨i−j−2⟩ₙ ]
/// ```
///
/// # Panics
/// Never for accepted parameters (invalid `n` returns an error); the
/// builder's structural validation is an internal-consistency guard on
/// the closed forms above.
pub fn dcode(n: usize) -> Result<CodeLayout, ConstructError> {
    check_param(n)?;
    let half = ((n - 3) / 2) as i64;
    let mut b = LayoutBuilder::new("D-Code", n, n, n);
    for i in 0..n {
        let horizontal: Vec<Cell> = (0..n - 2)
            .map(|j| {
                let col = md(i as i64 + j as i64 + 2, n);
                let row = md(half * (col as i64 - j as i64), n - 2);
                Cell::new(row, col)
            })
            .collect();
        b.equation(EquationKind::Horizontal, Cell::new(n - 2, i), horizontal);

        let deployment: Vec<Cell> = (0..n - 2)
            .map(|j| {
                let col = md(i as i64 - j as i64 - 2, n);
                let row = md(half * (col as i64 - j as i64), n - 2);
                Cell::new(row, col)
            })
            .collect();
        b.equation(EquationKind::Deployment, Cell::new(n - 1, i), deployment);
    }
    Ok(b.build()
        .expect("closed-form D-Code construction is structurally valid"))
}

/// The paper's *next horizontal element* ordering: row-major over the data
/// rows, wrapping from the end of a row to the start of the next.
///
/// Returns all `n(n−2)` data cells in horizontal-walk order.
pub fn horizontal_walk(n: usize) -> Vec<Cell> {
    (0..n * (n - 2)).map(|m| Cell::new(m / n, m % n)).collect()
}

/// The paper's *next deployment element* ordering: start at `D(0,0)`; from
/// `D(i,j)` move to the element below-left, wrapping the row modulo `n−2`,
/// unless `j = 0`, in which case move to the last element of the current
/// row.
///
/// Returns all `n(n−2)` data cells in deployment-walk order.
pub fn deployment_walk(n: usize) -> Vec<Cell> {
    let total = n * (n - 2);
    let mut walk = Vec::with_capacity(total);
    let mut cur = Cell::new(0, 0);
    for _ in 0..total {
        walk.push(cur);
        cur = if cur.col == 0 {
            Cell::new(cur.row, n - 1)
        } else {
            Cell::new((cur.row + 1) % (n - 2), cur.col - 1)
        };
    }
    walk
}

/// Build D-Code from the paper's operational 4-step procedure (Section
/// III-A): number the data elements along the horizontal/deployment walks,
/// split them into `n` groups of `n−2`, and attach each group to the parity
/// position the procedure names.
///
/// * Horizontal group `k` (elements `k(n−2) .. k(n−2)+n−3` of the horizontal
///   walk) stores its XOR at `P[n−2][⟨y+1⟩ₙ]`, where `y` is the column of the
///   group's *last* element.
/// * Deployment group `g` (same split of the deployment walk) stores its XOR
///   at `P[n−1][⟨2(g+1)⟩ₙ]` (the paper labels parity columns 2, 4, …, ⟨2n⟩ₙ
///   with letters A, B, …).
///
/// # Panics
/// Never for accepted parameters (invalid `n` returns an error); the
/// builder's structural validation guards the procedure's internal
/// consistency.
pub fn dcode_procedural(n: usize) -> Result<CodeLayout, ConstructError> {
    check_param(n)?;
    let mut b = LayoutBuilder::new("D-Code", n, n, n);

    let hwalk = horizontal_walk(n);
    for k in 0..n {
        let group = &hwalk[k * (n - 2)..(k + 1) * (n - 2)];
        let last = group[n - 3];
        let parity_col = md(last.col as i64 + 1, n);
        b.equation(
            EquationKind::Horizontal,
            Cell::new(n - 2, parity_col),
            group.to_vec(),
        );
    }

    let dwalk = deployment_walk(n);
    for g in 0..n {
        let group = &dwalk[g * (n - 2)..(g + 1) * (n - 2)];
        let parity_col = md(2 * (g as i64 + 1), n);
        b.equation(
            EquationKind::Deployment,
            Cell::new(n - 1, parity_col),
            group.to_vec(),
        );
    }

    Ok(b.build()
        .expect("procedural D-Code construction is structurally valid"))
}

/// Build X-Code over `n` disks (Xu & Bruck 1999), as restated by the paper's
/// equations (4) and (5):
///
/// ```text
/// E[n−2][i] = ⊕_{j=0}^{n−3} E[j][⟨i+j+2⟩ₙ]      (diagonal parities)
/// E[n−1][i] = ⊕_{j=0}^{n−3} E[j][⟨i−j−2⟩ₙ]      (anti-diagonal parities)
/// ```
///
/// Exposed here because the Theorem-1 construction and the correctness
/// argument need it; the `dcode-baselines` crate re-exports it as the
/// evaluation baseline.
///
/// # Panics
/// Never for accepted parameters (invalid `n` returns an error); the
/// builder's structural validation guards the closed forms' internal
/// consistency.
pub fn xcode(n: usize) -> Result<CodeLayout, ConstructError> {
    check_param(n)?;
    let mut b = LayoutBuilder::new("X-Code", n, n, n);
    for i in 0..n {
        let diag: Vec<Cell> = (0..n - 2)
            .map(|j| Cell::new(j, md(i as i64 + j as i64 + 2, n)))
            .collect();
        b.equation(EquationKind::Diagonal, Cell::new(n - 2, i), diag);

        let anti: Vec<Cell> = (0..n - 2)
            .map(|j| Cell::new(j, md(i as i64 - j as i64 - 2, n)))
            .collect();
        b.equation(EquationKind::AntiDiagonal, Cell::new(n - 1, i), anti);
    }
    Ok(b.build()
        .expect("X-Code construction is structurally valid"))
}

/// Build D-Code by reordering the elements of each X-Code column (Theorem 1):
/// the X-Code element at `(i, j)` (for data rows `i ≤ n−3`) moves to row
/// `⟨(n−3)/2 · (j − i)⟩_{n−2}` of the same column; parity rows stay in place.
/// X-Code's diagonal equations become D-Code's horizontal equations and its
/// anti-diagonals become deployment equations.
///
/// # Panics
/// Never for accepted parameters (invalid `n` returns an error); the
/// builder's structural validation guards the relocation's internal
/// consistency.
pub fn dcode_via_xcode_reordering(n: usize) -> Result<CodeLayout, ConstructError> {
    let x = xcode(n)?;
    let half = ((n - 3) / 2) as i64;
    let relocate = |c: Cell| -> Cell {
        if c.row <= n - 3 {
            Cell::new(md(half * (c.col as i64 - c.row as i64), n - 2), c.col)
        } else {
            c
        }
    };
    let mut b = LayoutBuilder::new("D-Code", n, n, n);
    for eq in x.equations() {
        let kind = match eq.kind {
            EquationKind::Diagonal => EquationKind::Horizontal,
            EquationKind::AntiDiagonal => EquationKind::Deployment,
            k => k,
        };
        let members: Vec<Cell> = eq.members.iter().map(|&m| relocate(m)).collect();
        b.equation(kind, relocate(eq.parity), members);
    }
    Ok(b.build().expect("reordered X-Code is structurally valid"))
}

/// Canonical form of a layout's equation system — kinds, parity cells, and
/// sorted member lists, sorted by parity cell — for structural comparison of
/// two constructions.
pub fn canonical_equations(layout: &CodeLayout) -> Vec<(EquationKind, Cell, Vec<Cell>)> {
    let mut eqs: Vec<(EquationKind, Cell, Vec<Cell>)> = layout
        .equations()
        .iter()
        .map(|e| {
            let mut m = e.members.clone();
            m.sort_unstable();
            (e.kind, e.parity, m)
        })
        .collect();
    eqs.sort_by_key(|(_, p, _)| *p);
    eqs
}

/// Primes the paper evaluates (`p = 5, 7, 11, 13`).
pub const PAPER_PRIMES: [usize; 4] = [5, 7, 11, 13];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn d(r: usize, c: usize) -> Cell {
        Cell::new(r, c)
    }

    /// The paper's worked example for equation (1): for n = 7,
    /// `P(5,1) = D(1,3) ⊕ D(1,4) ⊕ D(1,5) ⊕ D(1,6) ⊕ D(2,0)`.
    #[test]
    fn paper_example_horizontal_p51() {
        let l = dcode(7).unwrap();
        let eq = l.equations().iter().find(|e| e.parity == d(5, 1)).unwrap();
        assert_eq!(eq.kind, EquationKind::Horizontal);
        let members: BTreeSet<Cell> = eq.members.iter().copied().collect();
        assert_eq!(
            members,
            BTreeSet::from([d(1, 3), d(1, 4), d(1, 5), d(1, 6), d(2, 0)])
        );
    }

    /// The paper's worked example for equation (2): for n = 7,
    /// `P(6,2) = D(0,0) ⊕ D(0,6) ⊕ D(1,5) ⊕ D(2,4) ⊕ D(3,3)`.
    #[test]
    fn paper_example_deployment_p62() {
        let l = dcode(7).unwrap();
        let eq = l.equations().iter().find(|e| e.parity == d(6, 2)).unwrap();
        assert_eq!(eq.kind, EquationKind::Deployment);
        let members: BTreeSet<Cell> = eq.members.iter().copied().collect();
        assert_eq!(
            members,
            BTreeSet::from([d(0, 0), d(0, 6), d(1, 5), d(2, 4), d(3, 3)])
        );
    }

    /// Figure 2(a): the horizontal walk for n = 7 starts
    /// D(0,0), D(0,1), … and the 10th–14th elements are
    /// D(1,3), D(1,4), D(1,5), D(1,6), D(2,0).
    #[test]
    fn figure2a_horizontal_walk() {
        let w = horizontal_walk(7);
        assert_eq!(&w[0..3], &[d(0, 0), d(0, 1), d(0, 2)]);
        assert_eq!(&w[10..15], &[d(1, 3), d(1, 4), d(1, 5), d(1, 6), d(2, 0)]);
        assert_eq!(w.len(), 35);
    }

    /// Figure 2(b): the deployment walk for n = 7 starts
    /// D(0,0), D(0,6), D(1,5), D(2,4), D(3,3) (the letter-'A' group) and ends
    /// at D(4,1)… the paper says the walk terminates at D(n−3, 1).
    #[test]
    fn figure2b_deployment_walk() {
        let w = deployment_walk(7);
        assert_eq!(&w[0..5], &[d(0, 0), d(0, 6), d(1, 5), d(2, 4), d(3, 3)]);
        assert_eq!(*w.last().unwrap(), d(7 - 3, 1));
        // The walk must visit every data cell exactly once.
        let set: BTreeSet<Cell> = w.iter().copied().collect();
        assert_eq!(set.len(), 35);
        assert!(set.iter().all(|c| c.row <= 4 && c.col <= 6));
    }

    #[test]
    fn deployment_walk_is_a_permutation_for_all_paper_primes() {
        for n in PAPER_PRIMES {
            let w = deployment_walk(n);
            let set: BTreeSet<Cell> = w.iter().copied().collect();
            assert_eq!(set.len(), n * (n - 2), "walk revisits a cell for n={n}");
        }
    }

    /// Figure 2(b)'s bottom row: deployment parity letters A..G sit at
    /// columns 2, 4, 6, 1, 3, 5, 0 — i.e. group g's parity is at ⟨2(g+1)⟩₇.
    #[test]
    fn figure2b_deployment_parity_columns() {
        let l = dcode_procedural(7).unwrap();
        let w = deployment_walk(7);
        let expected_cols = [2usize, 4, 6, 1, 3, 5, 0];
        for (g, &col) in expected_cols.iter().enumerate() {
            let eq = l
                .equations()
                .iter()
                .find(|e| e.parity == d(6, col))
                .unwrap();
            let members: BTreeSet<Cell> = eq.members.iter().copied().collect();
            let group: BTreeSet<Cell> = w[g * 5..(g + 1) * 5].iter().copied().collect();
            assert_eq!(members, group, "deployment group {g} at column {col}");
        }
    }

    #[test]
    fn procedural_equals_closed_form() {
        for n in PAPER_PRIMES {
            let a = dcode(n).unwrap();
            let b = dcode_procedural(n).unwrap();
            assert_eq!(
                canonical_equations(&a),
                canonical_equations(&b),
                "procedural and closed-form constructions differ for n={n}"
            );
        }
    }

    #[test]
    fn theorem1_xcode_reordering_equals_closed_form() {
        for n in PAPER_PRIMES {
            let a = dcode(n).unwrap();
            let b = dcode_via_xcode_reordering(n).unwrap();
            assert_eq!(
                canonical_equations(&a),
                canonical_equations(&b),
                "Theorem 1 reordering differs from equations (1)-(2) for n={n}"
            );
        }
    }

    #[test]
    fn layout_shape() {
        for n in PAPER_PRIMES {
            let l = dcode(n).unwrap();
            assert_eq!(l.disks(), n);
            assert_eq!(l.rows(), n);
            assert_eq!(l.data_len(), n * (n - 2));
            // Parities exactly fill the last two rows.
            for c in l.grid().cells() {
                let should_be_parity = c.row >= n - 2;
                assert_eq!(l.kind(c).is_parity(), should_be_parity, "cell {c}");
            }
            // Every disk carries exactly 2 parity elements: perfectly even.
            for col in 0..n {
                assert_eq!(l.parity_count_in_col(col), 2);
            }
        }
    }

    #[test]
    fn each_data_element_in_exactly_two_equations() {
        for n in PAPER_PRIMES {
            let l = dcode(n).unwrap();
            for &cell in l.data_cells() {
                let eqs = l.member_eqs(cell);
                assert_eq!(
                    eqs.len(),
                    2,
                    "data {cell} in {} equations (n={n})",
                    eqs.len()
                );
                let kinds: BTreeSet<EquationKind> =
                    eqs.iter().map(|&i| l.equation(i).kind).collect();
                assert_eq!(
                    kinds,
                    BTreeSet::from([EquationKind::Horizontal, EquationKind::Deployment])
                );
            }
        }
    }

    #[test]
    fn optimal_update_complexity() {
        // Updating any single data element dirties exactly two parities
        // (Section III-D, "The Optimal Update Complexity").
        for n in PAPER_PRIMES {
            let l = dcode(n).unwrap();
            for &cell in l.data_cells() {
                assert_eq!(l.update_closure(&[cell]).len(), 2);
            }
        }
    }

    #[test]
    fn rejects_non_prime_and_tiny() {
        assert_eq!(dcode(9).unwrap_err(), ConstructError::NotPrime(9));
        assert_eq!(dcode(4).unwrap_err(), ConstructError::NotPrime(4));
        assert_eq!(dcode(3).unwrap_err(), ConstructError::TooSmall(3));
        assert_eq!(dcode(2).unwrap_err(), ConstructError::TooSmall(2));
        assert!(dcode(17).is_ok());
    }

    #[test]
    fn xcode_shape() {
        let l = xcode(7).unwrap();
        assert_eq!(l.disks(), 7);
        assert_eq!(l.data_len(), 35);
        for col in 0..7 {
            assert_eq!(l.parity_count_in_col(col), 2);
        }
        // X-Code parities cover diagonals: spot-check E(5,0) covers
        // E(j, <j+2>_7) for j = 0..4.
        let eq = l.equations().iter().find(|e| e.parity == d(5, 0)).unwrap();
        let members: BTreeSet<Cell> = eq.members.iter().copied().collect();
        assert_eq!(
            members,
            BTreeSet::from([d(0, 2), d(1, 3), d(2, 4), d(3, 5), d(4, 6)])
        );
    }

    #[test]
    fn horizontal_groups_are_logically_continuous() {
        // The whole point of D-Code's horizontal parity: each equation's
        // members form a run of consecutive logical addresses.
        for n in PAPER_PRIMES {
            let l = dcode(n).unwrap();
            for eq in l
                .equations()
                .iter()
                .filter(|e| e.kind == EquationKind::Horizontal)
            {
                let mut logical: Vec<usize> = eq
                    .members
                    .iter()
                    .map(|&m| l.logical_of(m).unwrap())
                    .collect();
                logical.sort_unstable();
                let first = logical[0];
                assert!(
                    logical.iter().enumerate().all(|(k, &v)| v == first + k),
                    "horizontal members not continuous for n={n}: {logical:?}"
                );
            }
        }
    }
}
