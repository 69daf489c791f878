//! Erasure decoding: peeling with a Gaussian-elimination fallback.
//!
//! All RAID-6 array codes in this workspace recover any two lost columns.
//! Most (RDP, X-Code, H-Code, HDP, D-Code) do so by *peeling*: repeatedly
//! find a parity equation with exactly one unknown element and solve it —
//! the "recovery chain" argument in the RDP/X-Code/D-Code papers (the
//! D-Code paper's Figure 3 walks two such chains). EVENODD additionally
//! needs linear *combinations* of equations (its classic `S`-syndrome
//! trick), so when peeling stalls the planner falls back to Gauss-Jordan
//! elimination over GF(2). That elimination is also what [`crate::mds`]
//! runs to decide recoverability by rank.
//!
//! Either way the planner emits an ordered [`RecoveryPlan`] whose steps are
//! self-contained `target := XOR(sources)` operations; the byte-level codec
//! replays the plan over real buffers, and the I/O simulators use it to
//! count disk accesses.

use crate::grid::Cell;
use crate::layout::CodeLayout;
use std::collections::BTreeSet;
use std::fmt;

/// One reconstruction step: `target := XOR(sources)`.
///
/// `eqs` records which parity equations were combined to derive the step —
/// a single index for a peeling step, several for a Gaussian step — so the
/// I/O accounting can attribute the work to parity families.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveryStep {
    /// The cell being reconstructed.
    pub target: Cell,
    /// Indices into [`CodeLayout::equations`] combined to derive this step.
    pub eqs: Vec<usize>,
    /// Cells XORed to produce the target. Every source is either a
    /// never-erased cell or the target of an earlier step in the plan.
    pub sources: Vec<Cell>,
}

/// An ordered sequence of [`RecoveryStep`]s that reconstructs every erased
/// cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveryPlan {
    /// The cells that were erased, in ascending order.
    pub erased: Vec<Cell>,
    /// Steps in execution order; each target appears exactly once.
    pub steps: Vec<RecoveryStep>,
}

impl RecoveryPlan {
    /// Total XOR operations to execute the plan (`sources − 1` per step).
    pub fn xor_count(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.sources.len().saturating_sub(1))
            .sum()
    }

    /// The set of *surviving* cells the plan reads (erased cells recovered
    /// by earlier steps are not re-read from disk). This is the disk-read
    /// footprint of the recovery.
    pub fn surviving_reads(&self) -> BTreeSet<Cell> {
        let erased: BTreeSet<Cell> = self.erased.iter().copied().collect();
        let mut reads = BTreeSet::new();
        for step in &self.steps {
            for &cell in &step.sources {
                if !erased.contains(&cell) {
                    reads.insert(cell);
                }
            }
        }
        reads
    }

    /// Whether every step is a plain peeling step (derived from exactly one
    /// equation). True for all the paper's codes; false for EVENODD.
    pub fn is_pure_peeling(&self) -> bool {
        self.steps.iter().all(|s| s.eqs.len() == 1)
    }

    /// Restrict the plan to the steps actually needed to reconstruct
    /// `wanted` cells: the transitive closure over erased sources, in the
    /// original execution order. Used for *partial* degraded service — a
    /// read that needs only a few lost elements should not pay for a whole
    /// column rebuild.
    pub fn subplan_for(&self, wanted: &BTreeSet<Cell>) -> RecoveryPlan {
        let erased: BTreeSet<Cell> = self.erased.iter().copied().collect();
        debug_assert!(wanted.iter().all(|c| erased.contains(c)), "wanted ⊄ erased");
        let mut needed: BTreeSet<Cell> = wanted.clone();
        // Walk the steps backwards: a step is kept if its target is needed,
        // and then its erased sources become needed too.
        let mut keep = vec![false; self.steps.len()];
        for (i, step) in self.steps.iter().enumerate().rev() {
            if needed.contains(&step.target) {
                keep[i] = true;
                for src in &step.sources {
                    if erased.contains(src) {
                        needed.insert(*src);
                    }
                }
            }
        }
        let steps: Vec<RecoveryStep> = self
            .steps
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(s, _)| s.clone())
            .collect();
        let sub_erased: Vec<Cell> = steps.iter().map(|s| s.target).collect();
        let mut sub_erased_sorted = sub_erased;
        sub_erased_sorted.sort_unstable();
        RecoveryPlan {
            erased: sub_erased_sorted,
            steps,
        }
    }
}

/// Decoding failure: the erasure is outside the code's correction
/// capability (for a RAID-6 MDS code, three or more lost columns).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Unrecoverable {
    /// Cells that could not be reconstructed.
    pub remaining: Vec<Cell>,
}

impl fmt::Display for Unrecoverable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unrecoverable erasure; {} cells stuck (first: {:?})",
            self.remaining.len(),
            self.remaining.first()
        )
    }
}

impl std::error::Error for Unrecoverable {}

/// Plan the reconstruction of an arbitrary set of erased cells.
///
/// Peels as far as possible; if unknowns remain, runs Gauss-Jordan
/// elimination over the remaining equations. Fails only if the erasure is
/// linearly unrecoverable.
///
/// # Panics
/// Panics if `erased` names cells outside the layout's grid; internal
/// asserts otherwise only guard the peeling bookkeeping's consistency.
pub fn plan_recovery(
    layout: &CodeLayout,
    erased: &BTreeSet<Cell>,
) -> Result<RecoveryPlan, Unrecoverable> {
    let grid = layout.grid();
    let mut unknown = vec![false; grid.len()];
    for &cell in erased {
        unknown[grid.index(cell)] = true;
    }

    // --- Phase 1: peeling -------------------------------------------------
    let n_eq = layout.equations().len();
    let mut counts = vec![0usize; n_eq];
    for (i, eq) in layout.equations().iter().enumerate() {
        counts[i] = eq.cells().filter(|&c| unknown[grid.index(c)]).count();
    }

    let mut ready: Vec<usize> = (0..n_eq).filter(|&i| counts[i] == 1).collect();
    let mut steps: Vec<RecoveryStep> = Vec::with_capacity(erased.len());
    let mut solved = 0usize;

    while let Some(eq_idx) = ready.pop() {
        if counts[eq_idx] != 1 {
            continue; // already solved via another equation
        }
        let eq = layout.equation(eq_idx);
        let target = eq
            .cells()
            .find(|&c| unknown[grid.index(c)])
            .expect("count said one unknown");
        unknown[grid.index(target)] = false;
        solved += 1;
        steps.push(RecoveryStep {
            target,
            eqs: vec![eq_idx],
            sources: eq.cells().filter(|&c| c != target).collect(),
        });

        // The target just became known; decrement the unknown count of every
        // equation involving it.
        let mut touched: Vec<usize> = layout.member_eqs(target).to_vec();
        if let Some(se) = layout.storing_eq(target) {
            touched.push(se);
        }
        for t in touched {
            counts[t] -= 1;
            if counts[t] == 1 {
                ready.push(t);
            }
        }
    }

    if solved == erased.len() {
        return Ok(RecoveryPlan {
            erased: erased.iter().copied().collect(),
            steps,
        });
    }

    // --- Phase 2: Gauss-Jordan over the stalled unknowns ------------------
    let stalled: Vec<Cell> = grid.cells().filter(|&c| unknown[grid.index(c)]).collect();
    let Reduced {
        rows,
        pivot_row_of_col,
    } = gauss_jordan(layout, &stalled);

    // An unknown is uniquely determined iff it has a pivot row containing
    // no other (free) unknowns. With free variables present, some pivot rows
    // keep extra set columns in RREF — those targets are undetermined too.
    let determined = |c: usize| -> bool {
        pivot_row_of_col[c]
            .is_some_and(|row| rows[row].0.iter().map(|w| w.count_ones()).sum::<u32>() == 1)
    };
    if !(0..stalled.len()).all(determined) {
        let remaining: Vec<Cell> = stalled
            .iter()
            .enumerate()
            .filter(|&(c, _)| !determined(c))
            .map(|(_, &cell)| cell)
            .collect();
        return Err(Unrecoverable { remaining });
    }

    // Extract one step per solved unknown.
    for (c, &target) in stalled.iter().enumerate() {
        let row = pivot_row_of_col[c].expect("all unknowns determined");
        let (_, eqmask) = &rows[row];
        let eqs: Vec<usize> = (0..n_eq)
            .filter(|&i| eqmask[i / 64] >> (i % 64) & 1 == 1)
            .collect();
        // Sources = symmetric difference of the combined equations' cells,
        // minus the target. All survivors or peel-recovered cells.
        let mut parity_map: std::collections::BTreeMap<Cell, bool> =
            std::collections::BTreeMap::new();
        for &ei in &eqs {
            for cell in layout.equation(ei).cells() {
                *parity_map.entry(cell).or_insert(false) ^= true;
            }
        }
        let sources: Vec<Cell> = parity_map
            .into_iter()
            .filter(|&(cell, odd)| odd && cell != target)
            .map(|(cell, _)| cell)
            .collect();
        debug_assert!(
            sources.iter().all(|&s| !unknown[grid.index(s)]),
            "Gaussian step for {target} references an unsolved unknown"
        );
        steps.push(RecoveryStep {
            target,
            eqs,
            sources,
        });
    }

    Ok(RecoveryPlan {
        erased: erased.iter().copied().collect(),
        steps,
    })
}

/// A GF(2) system in reduced row-echelon form: one row per equation that
/// touches an unknown, each a word-packed `(unknown mask, equation mask)`
/// pair — the unknowns the row still holds and the equations XORed into it.
pub(crate) struct Reduced {
    pub(crate) rows: Vec<(Vec<u64>, Vec<u64>)>,
    /// The row holding each unknown's pivot, if it has one.
    pub(crate) pivot_row_of_col: Vec<Option<usize>>,
}

/// Gauss-Jordan elimination over GF(2) of the layout's equations restricted
/// to `unknowns` (bit `j` of an unknown mask is `unknowns[j]`). Column by
/// column, the pivot is the first not-yet-pivoted row holding it. The
/// rank is the number of pivots.
pub(crate) fn gauss_jordan(layout: &CodeLayout, unknowns: &[Cell]) -> Reduced {
    let grid = layout.grid();
    let mut col_of = vec![usize::MAX; grid.len()];
    for (j, &cell) in unknowns.iter().enumerate() {
        col_of[grid.index(cell)] = j;
    }
    let words = unknowns.len().div_ceil(64);
    let eq_words = layout.equations().len().div_ceil(64);
    let mut rows: Vec<(Vec<u64>, Vec<u64>)> = Vec::new();
    for (i, eq) in layout.equations().iter().enumerate() {
        // XOR (not OR) so a cell appearing twice in one equation cancels,
        // matching the byte-level semantics.
        let mut mask = vec![0u64; words];
        let mut any = false;
        for cell in eq.cells() {
            let j = col_of[grid.index(cell)];
            if j != usize::MAX {
                mask[j / 64] ^= 1 << (j % 64);
                any = true;
            }
        }
        if any {
            let mut eqmask = vec![0u64; eq_words];
            eqmask[i / 64] |= 1 << (i % 64);
            rows.push((mask, eqmask));
        }
    }

    let mut pivot_row_of_col = vec![None; unknowns.len()];
    let mut r = 0usize;
    for (c, pivot_row) in pivot_row_of_col.iter_mut().enumerate() {
        let holds = |row: &(Vec<u64>, Vec<u64>)| row.0[c / 64] >> (c % 64) & 1 == 1;
        let Some(pivot) = (r..rows.len()).find(|&k| holds(&rows[k])) else {
            continue;
        };
        rows.swap(r, pivot);
        let (mask_r, eq_r) = rows[r].clone();
        for (k, row) in rows.iter_mut().enumerate() {
            if k != r && holds(row) {
                for (dst, src) in row.0.iter_mut().zip(&mask_r) {
                    *dst ^= src;
                }
                for (dst, src) in row.1.iter_mut().zip(&eq_r) {
                    *dst ^= src;
                }
            }
        }
        *pivot_row = Some(r);
        r += 1;
    }
    Reduced {
        rows,
        pivot_row_of_col,
    }
}

/// Plan the reconstruction of whole failed disks.
///
/// # Panics
/// Panics if any entry of `failed_cols` is not a valid disk index.
pub fn plan_column_recovery(
    layout: &CodeLayout,
    failed_cols: &[usize],
) -> Result<RecoveryPlan, Unrecoverable> {
    let mut erased = BTreeSet::new();
    for &col in failed_cols {
        assert!(col < layout.disks(), "disk {col} out of range");
        erased.extend(layout.grid().column(col));
    }
    plan_recovery(layout, &erased)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equation::EquationKind;
    use crate::layout::LayoutBuilder;

    /// 2×3 toy with row parity in the last column — single-failure capable.
    fn toy() -> CodeLayout {
        let mut b = LayoutBuilder::new("toy", 3, 2, 3);
        for r in 0..2 {
            b.equation(
                EquationKind::Row,
                Cell::new(r, 2),
                vec![Cell::new(r, 0), Cell::new(r, 1)],
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn recovers_single_data_column() {
        let l = toy();
        let plan = plan_column_recovery(&l, &[0]).unwrap();
        assert_eq!(plan.steps.len(), 2);
        let targets: BTreeSet<Cell> = plan.steps.iter().map(|s| s.target).collect();
        assert_eq!(targets, BTreeSet::from([Cell::new(0, 0), Cell::new(1, 0)]));
        assert!(plan.is_pure_peeling());
    }

    #[test]
    fn recovers_parity_column() {
        let l = toy();
        let plan = plan_column_recovery(&l, &[2]).unwrap();
        assert_eq!(plan.steps.len(), 2);
    }

    #[test]
    fn double_failure_fails_for_raid5_toy() {
        // The toy has only one parity family — two lost columns must stall
        // even with the Gaussian fallback (the system is genuinely
        // underdetermined).
        let l = toy();
        let err = plan_column_recovery(&l, &[0, 1]).unwrap_err();
        assert!(!err.remaining.is_empty());
    }

    #[test]
    fn sources_exclude_target() {
        let l = toy();
        let plan = plan_column_recovery(&l, &[0]).unwrap();
        for step in &plan.steps {
            assert!(!step.sources.contains(&step.target));
            assert_eq!(step.sources.len(), 2);
        }
    }

    #[test]
    fn surviving_reads_skip_recovered_cells() {
        let l = toy();
        let plan = plan_column_recovery(&l, &[0]).unwrap();
        let reads = plan.surviving_reads();
        // Reads touch only columns 1 and 2.
        assert!(reads.iter().all(|c| c.col != 0));
        assert_eq!(reads.len(), 4);
    }

    #[test]
    fn xor_count_matches_arity() {
        let l = toy();
        let plan = plan_column_recovery(&l, &[0]).unwrap();
        // Each equation has arity 3 → 1 XOR per recovered element.
        assert_eq!(plan.xor_count(), 2);
    }

    #[test]
    fn empty_erasure_trivial_plan() {
        let l = toy();
        let plan = plan_recovery(&l, &BTreeSet::new()).unwrap();
        assert!(plan.steps.is_empty());
    }

    /// A layout that *requires* the Gaussian fallback: with data cells
    /// d0, d1, d2 and parities p0 = d0⊕d1, p1 = d1⊕d2, p2 = d0⊕d1⊕d2,
    /// erasing all three data cells leaves every equation with ≥ 2 unknowns
    /// (peeling stalls), but the system has full rank over GF(2).
    #[test]
    fn gaussian_fallback_solves_combined_equations() {
        let d0 = Cell::new(0, 0);
        let d1 = Cell::new(0, 1);
        let d2 = Cell::new(0, 2);
        let mut b = LayoutBuilder::new("gauss", 5, 1, 6);
        b.equation(EquationKind::Row, Cell::new(0, 3), vec![d0, d1]);
        b.equation(EquationKind::Row, Cell::new(0, 4), vec![d1, d2]);
        b.equation(EquationKind::Diagonal, Cell::new(0, 5), vec![d0, d1, d2]);
        let l = b.build().unwrap();

        let plan = plan_recovery(&l, &BTreeSet::from([d0, d1, d2])).unwrap();
        assert_eq!(plan.steps.len(), 3);
        assert!(!plan.is_pure_peeling());
        // d2 = p0 ⊕ p2 (combining equations 0 and 2 cancels d0 and d1).
        let step_d2 = plan.steps.iter().find(|s| s.target == d2).unwrap();
        let srcs: BTreeSet<Cell> = step_d2.sources.iter().copied().collect();
        assert_eq!(srcs, BTreeSet::from([Cell::new(0, 3), Cell::new(0, 5)]));
        // Every source of every step is a surviving cell.
        for step in &plan.steps {
            for s in &step.sources {
                assert!(s.col >= 3, "source {s} should be a surviving parity");
            }
        }
    }

    #[test]
    fn subplan_recovers_only_whats_needed() {
        use crate::dcode::dcode;
        let layout = dcode(7).unwrap();
        let full = plan_column_recovery(&layout, &[2, 3]).unwrap();
        assert_eq!(full.steps.len(), 14);

        // Wanting a single early-recoverable element needs a short prefix.
        let first_target = full.steps[0].target;
        let sub = full.subplan_for(&BTreeSet::from([first_target]));
        assert_eq!(sub.steps.len(), 1);
        assert_eq!(sub.steps[0].target, first_target);

        // Wanting the last-recovered element pulls in its whole chain but
        // not the other chain.
        let last_target = full.steps.last().unwrap().target;
        let sub = full.subplan_for(&BTreeSet::from([last_target]));
        assert!(sub.steps.len() < full.steps.len());
        assert_eq!(sub.steps.last().unwrap().target, last_target);
        // Every erased source of every kept step is recovered earlier in
        // the subplan (executability).
        let mut known: BTreeSet<Cell> = BTreeSet::new();
        let erased_full: BTreeSet<Cell> = full.erased.iter().copied().collect();
        for step in &sub.steps {
            for src in &step.sources {
                if erased_full.contains(src) {
                    assert!(known.contains(src), "step uses unrecovered {src}");
                }
            }
            known.insert(step.target);
        }
    }

    /// Rank-deficient stall: duplicate constraints cannot determine two
    /// unknowns, and the fallback must report them rather than panic.
    #[test]
    fn gaussian_fallback_reports_underdetermined_systems() {
        let d0 = Cell::new(0, 0);
        let d1 = Cell::new(0, 1);
        let mut b = LayoutBuilder::new("rank1", 5, 1, 4);
        b.equation(EquationKind::Row, Cell::new(0, 2), vec![d0, d1]);
        b.equation(EquationKind::Diagonal, Cell::new(0, 3), vec![d0, d1]);
        let l = b.build().unwrap();
        let err = plan_recovery(&l, &BTreeSet::from([d0, d1])).unwrap_err();
        assert_eq!(err.remaining.len(), 2);
    }
}
