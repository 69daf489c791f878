#![warn(missing_docs)]
//! # dcode-recovery
//!
//! Single-disk failure recovery optimization (Section III-D's last claim).
//!
//! Rebuilding a failed disk conventionally recovers every lost data element
//! through one fixed parity family, reading that equation's surviving
//! members. Xu et al. (IEEE ToC 2013) showed that *mixing* the two parity
//! families — choosing per lost element which equation to use so that the
//! chosen equations overlap in the surviving elements they read — cuts disk
//! reads by about 25% for X-Code. The D-Code paper claims the same saving
//! carries over to D-Code by Theorem 1. This crate implements both the
//! conventional scheme and an exact minimum-read hybrid optimizer (exhaustive
//! over the 2^(n−2) family assignments, with a greedy + local-search
//! fallback for large stripes) and measures the saving for every code.
//!
//! The optimizer's choice is executable, not only countable:
//! [`RebuildPlan::recovery_plan`] turns it into the ordered XOR steps the
//! schedule compiler lowers, which is what `dcode-array` replays to rebuild
//! a failed disk. An equation that holds a second cell of the failed
//! column (EVENODD's diagonals all hold its S-diagonal cell) may be chosen
//! once that cell is rebuilt; choices that wait on each other in a circle
//! are not plans and the searches skip them.

use dcode_core::decoder::{RecoveryPlan, RecoveryStep};
use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use std::collections::BTreeSet;

/// One recovery option for a lost cell.
struct EqOption {
    /// The equation solved for the lost cell.
    eq: usize,
    /// The surviving cells it reads.
    reads: BTreeSet<Cell>,
    /// `reads` as a bitmask over grid indices — what the searches union.
    mask: Vec<u64>,
    /// Rows of the *other* lost cells the equation holds (EVENODD's
    /// diagonals, through the S-diagonal): they must be rebuilt first.
    needs: u64,
}
/// All recovery options for every lost cell of a failed column.
type ColumnOptions = Vec<(Cell, Vec<EqOption>)>;

/// The read set of one whole-disk rebuild.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RebuildPlan {
    /// The failed disk.
    pub failed_col: usize,
    /// Chosen equation per lost cell (parity cells always use their own
    /// stored equation), in an order that rebuilds every lost cell before
    /// an equation that holds it is used — row order unless a choice
    /// forces otherwise.
    pub choices: Vec<(Cell, usize)>,
    /// Surviving cells read from disk, deduplicated (a recovery engine with
    /// a shared stripe buffer reads each element once).
    pub reads: BTreeSet<Cell>,
    /// Total reads when every chosen equation streams its members
    /// independently, with no shared cache — the *conventional* scheme's
    /// accounting in Xiang et al. (RDP) and Xu et al. (X-Code).
    pub reads_with_multiplicity: usize,
}

impl RebuildPlan {
    /// Number of element reads issued with a shared stripe buffer.
    pub fn read_count(&self) -> usize {
        self.reads.len()
    }

    /// The rebuild as ordered `target := XOR(sources)` steps, the form the
    /// schedule compiler lowers: one per choice, in the choices' order, so
    /// a source in the failed column is the target of an earlier step.
    pub fn recovery_plan(&self, layout: &CodeLayout) -> RecoveryPlan {
        let steps = self
            .choices
            .iter()
            .map(|&(target, eq)| RecoveryStep {
                target,
                eqs: vec![eq],
                sources: layout
                    .equation(eq)
                    .cells()
                    .filter(|&c| c != target)
                    .collect(),
            })
            .collect();
        RecoveryPlan {
            erased: layout.grid().column(self.failed_col).collect(),
            steps,
        }
    }
}

/// Candidate equations and their read sets for each lost cell of a column.
fn column_options(layout: &CodeLayout, failed_col: usize) -> ColumnOptions {
    let grid = layout.grid();
    let words = grid.len().div_ceil(64);
    assert!(grid.rows <= 64, "lost-cell masks are one word");
    grid.column(failed_col)
        .map(|cell| {
            let eqs: Vec<usize> = match layout.storing_eq(cell) {
                // A lost parity is recomputed from its own equation.
                Some(eq) => vec![eq],
                None => layout.member_eqs(cell).to_vec(),
            };
            assert!(!eqs.is_empty(), "cell {cell} has no recovery equation");
            let options = eqs
                .into_iter()
                .map(|eq| {
                    let (lost, reads): (Vec<Cell>, Vec<Cell>) = layout
                        .equation(eq)
                        .cells()
                        .filter(|&c| c != cell)
                        .partition(|c| c.col == failed_col);
                    let mut mask = vec![0u64; words];
                    for &c in &reads {
                        mask[grid.index(c) / 64] |= 1 << (grid.index(c) % 64);
                    }
                    EqOption {
                        eq,
                        reads: reads.into_iter().collect(),
                        mask,
                        needs: lost.iter().fold(0, |needs, c| needs | 1 << c.row),
                    }
                })
                .collect();
            (cell, options)
        })
        .collect()
}

/// An order of the lost cells (as indices into `options`, which are
/// their rows) in which each one's picked equation holds no lost cell
/// that is not yet rebuilt — lowest row first among the ready ones.
/// `None` when the picks wait on each other in a circle.
fn rebuild_order(options: &ColumnOptions, pick: &[usize]) -> Option<Vec<usize>> {
    let mut rebuilt = 0u64;
    let mut order = Vec::with_capacity(pick.len());
    while order.len() < pick.len() {
        let ready = (0..pick.len())
            .find(|&k| rebuilt >> k & 1 == 0 && options[k].1[pick[k]].needs & !rebuilt == 0)?;
        rebuilt |= 1 << ready;
        order.push(ready);
    }
    Some(order)
}

fn assemble(failed_col: usize, options: &ColumnOptions, pick: &[usize]) -> RebuildPlan {
    let mut reads = BTreeSet::new();
    let mut choices = Vec::with_capacity(options.len());
    let mut with_multiplicity = 0;
    for k in rebuild_order(options, pick).expect("a rebuildable choice of equations") {
        let (cell, opts) = &options[k];
        let option = &opts[pick[k]];
        choices.push((*cell, option.eq));
        with_multiplicity += option.reads.len();
        reads.extend(option.reads.iter().copied());
    }
    RebuildPlan {
        failed_col,
        choices,
        reads,
        reads_with_multiplicity: with_multiplicity,
    }
}

/// Words in every option's read mask.
fn mask_words(options: &ColumnOptions) -> usize {
    options.first().map_or(0, |(_, o)| o[0].mask.len())
}

/// Distinct cells read when lost cell `k` uses option `pick[k]`: the
/// popcount of the options' OR, accumulated in `acc` (reused by callers
/// so the search loops allocate nothing).
fn union_count(options: &ColumnOptions, pick: &[usize], acc: &mut [u64]) -> usize {
    acc.fill(0);
    for ((_, opts), &i) in options.iter().zip(pick) {
        for (a, m) in acc.iter_mut().zip(&opts[i].mask) {
            *a |= m;
        }
    }
    acc.iter().map(|w| w.count_ones() as usize).sum()
}

/// Conventional rebuild: every lost data element uses its *first* parity
/// family (the horizontal/row equation for every code in this workspace,
/// or the diagonal family for X-Code, matching the conventional schemes in
/// the literature).
pub fn conventional_rebuild(layout: &CodeLayout, failed_col: usize) -> RebuildPlan {
    let options = column_options(layout, failed_col);
    assemble(failed_col, &options, &vec![0; options.len()])
}

/// Exact minimum-read hybrid rebuild.
///
/// Exhaustive over all family assignments when the product of choice counts
/// is at most `2^20`; otherwise greedy seeding plus 1-flip local search
/// (which is already optimal in practice for these codes' structure).
pub fn optimal_rebuild(layout: &CodeLayout, failed_col: usize) -> RebuildPlan {
    let options = column_options(layout, failed_col);
    let combos: f64 = options.iter().map(|(_, o)| o.len() as f64).product();
    let pick = if combos <= (1 << 20) as f64 {
        exhaustive_pick(&options)
    } else {
        local_search_pick(&options)
    };
    assemble(failed_col, &options, &pick)
}

/// The first rebuildable assignment, in mixed-radix order, with the fewest
/// reads. `suffix[k]` holds the OR of the picked masks of cells `k..`, so
/// a step of the enumeration redoes only the digits it changed — two ORs
/// on average instead of one per cell.
fn exhaustive_pick(options: &ColumnOptions) -> Vec<usize> {
    let n = options.len();
    let mut suffix = vec![vec![0u64; mask_words(options)]; n + 1];
    let mut idx = vec![0usize; n];
    let mut best_idx = idx.clone();
    let mut best_count = usize::MAX;
    let mut changed = n; // digits below this index changed since the last count
    loop {
        for k in (0..changed).rev() {
            let (below, above) = suffix.split_at_mut(k + 1);
            let mask = &options[k].1[idx[k]].mask;
            for ((s, a), m) in below[k].iter_mut().zip(&above[0]).zip(mask) {
                *s = a | m;
            }
        }
        let count: usize = suffix[0].iter().map(|w| w.count_ones() as usize).sum();
        if count < best_count && rebuild_order(options, &idx).is_some() {
            best_count = count;
            best_idx.clone_from(&idx);
        }
        // Mixed-radix increment.
        let mut k = 0;
        loop {
            if k == n {
                return best_idx;
            }
            idx[k] += 1;
            if idx[k] < options[k].1.len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
        changed = k + 1;
    }
}

/// Greedy: process cells in order, picking the option that adds the fewest
/// cells to the accumulated read set among those holding no other lost
/// cell; then 1-flip local search over every option.
fn local_search_pick(options: &ColumnOptions) -> Vec<usize> {
    let mut acc = vec![0u64; mask_words(options)];
    let mut pick = vec![0usize; options.len()];
    for (k, (_, opts)) in options.iter().enumerate() {
        let added = |o: &EqOption| -> u32 {
            let fresh = o.mask.iter().zip(&acc).map(|(m, a)| m & !a);
            fresh.map(u64::count_ones).sum()
        };
        let (i, option) = opts
            .iter()
            .enumerate()
            .filter(|(_, o)| o.needs == 0)
            .min_by_key(|(_, o)| added(o))
            .expect("an equation with one lost cell");
        pick[k] = i;
        for (a, m) in acc.iter_mut().zip(&option.mask) {
            *a |= m;
        }
    }
    let mut best = union_count(options, &pick, &mut acc);
    loop {
        let mut improved = false;
        for k in 0..pick.len() {
            for alt in 0..options[k].1.len() {
                // Read the standing choice per flip: an accepted flip is
                // what a later rejected one must fall back to.
                let kept = pick[k];
                if alt == kept {
                    continue;
                }
                pick[k] = alt;
                let count = union_count(options, &pick, &mut acc);
                if count < best && rebuild_order(options, &pick).is_some() {
                    best = count;
                    improved = true;
                } else {
                    pick[k] = kept;
                }
            }
        }
        if !improved {
            break;
        }
    }
    debug_assert_eq!(union_count(options, &pick, &mut acc), best);
    pick
}

/// Savings summary over every failed-disk case of one code.
#[derive(Clone, Debug)]
pub struct RecoverySavings {
    /// Code name.
    pub code: String,
    /// Prime parameter.
    pub prime: usize,
    /// Mean conventional reads per failed-disk rebuild.
    pub conventional_reads: f64,
    /// Mean optimized reads per failed-disk rebuild.
    pub optimized_reads: f64,
}

impl RecoverySavings {
    /// Percentage of reads saved by the hybrid scheme.
    pub fn reduction_pct(&self) -> f64 {
        100.0 * (1.0 - self.optimized_reads / self.conventional_reads)
    }
}

/// Measure conventional vs optimal rebuild reads averaged over all disks.
///
/// The conventional scheme streams each equation independently (reads with
/// multiplicity, no shared cache); the optimized scheme both chooses
/// equation families to overlap *and* reads each element once. This is the
/// comparison behind Xu et al.'s ≈25% figure for X-Code, which Section
/// III-D carries over to D-Code.
pub fn measure_savings(layout: &CodeLayout) -> RecoverySavings {
    let disks = layout.disks();
    let mut conv = 0usize;
    let mut opt = 0usize;
    for col in 0..disks {
        let c = conventional_rebuild(layout, col).reads_with_multiplicity;
        let o = optimal_rebuild(layout, col).read_count();
        debug_assert!(o <= c);
        conv += c;
        opt += o;
    }
    RecoverySavings {
        code: layout.name().to_string(),
        prime: layout.prime(),
        conventional_reads: conv as f64 / disks as f64,
        optimized_reads: opt as f64 / disks as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_core::dcode::{dcode, xcode};

    #[test]
    fn optimal_never_exceeds_conventional() {
        for n in [5usize, 7, 11, 13] {
            let l = dcode(n).unwrap();
            for col in 0..n {
                let c = conventional_rebuild(&l, col).read_count();
                let o = optimal_rebuild(&l, col).read_count();
                assert!(o <= c, "n={n} col={col}: {o} > {c}");
            }
        }
    }

    #[test]
    fn xcode_hybrid_saves_about_a_quarter() {
        // Xu et al.: ~25% fewer reads for X-Code single-failure recovery.
        for n in [7usize, 11, 13] {
            let s = measure_savings(&xcode(n).unwrap());
            assert!(
                s.reduction_pct() > 15.0 && s.reduction_pct() < 35.0,
                "n={n}: {:.1}%",
                s.reduction_pct()
            );
        }
    }

    #[test]
    fn dcode_savings_match_xcode() {
        // Theorem 1: identical structure ⇒ identical savings.
        for n in [5usize, 7, 11, 13] {
            let d = measure_savings(&dcode(n).unwrap());
            let x = measure_savings(&xcode(n).unwrap());
            assert!(
                (d.reduction_pct() - x.reduction_pct()).abs() < 1e-9,
                "n={n}"
            );
        }
    }

    #[test]
    fn conventional_reads_whole_stripe_for_dcode() {
        // Rebuilding via horizontal equations only: each of the n−2 lost
        // data elements reads its n−3 surviving members + 1 parity, and the
        // 2 lost parities read their members. The union is large.
        let l = dcode(7).unwrap();
        let plan = conventional_rebuild(&l, 0);
        assert!(plan.read_count() > 20);
        // No read comes from the failed disk.
        assert!(plan.reads.iter().all(|c| c.col != 0));
    }

    #[test]
    fn greedy_path_engages_for_large_stripes_and_stays_sane() {
        // n = 29 → 2^27 assignments: beyond the exhaustive cap, so the
        // greedy + local-search fallback runs. It must still beat the
        // conventional multiplicity count by a healthy margin.
        let l = dcode(29).unwrap();
        let conv = conventional_rebuild(&l, 0);
        let opt = optimal_rebuild(&l, 0);
        assert!(opt.read_count() <= conv.reads_with_multiplicity);
        let reduction = 1.0 - opt.read_count() as f64 / conv.reads_with_multiplicity as f64;
        assert!(
            reduction > 0.2,
            "greedy reduction only {:.1}%",
            reduction * 100.0
        );
    }

    #[test]
    fn conventional_reads_match_closed_form_for_dcode() {
        // Every lost element's equation reads n−2 surviving cells; a lost
        // column holds n cells → n(n−2) reads with multiplicity.
        for n in [5usize, 7, 11, 13] {
            let l = dcode(n).unwrap();
            let plan = conventional_rebuild(&l, 2);
            assert_eq!(plan.reads_with_multiplicity, n * (n - 2));
        }
    }

    #[test]
    fn savings_reports_name_and_prime() {
        let s = measure_savings(&dcode(7).unwrap());
        assert_eq!(s.code, "D-Code");
        assert_eq!(s.prime, 7);
        assert!(s.reduction_pct() > 0.0);
    }

    /// The enumeration as it ran before the bitset unions: one `BTreeSet`
    /// union per assignment, first minimum in mixed-radix order.
    fn exhaustive_pick_by_sets(options: &ColumnOptions) -> Vec<usize> {
        let mut idx = vec![0usize; options.len()];
        let mut best = (usize::MAX, idx.clone());
        loop {
            let mut reads: BTreeSet<Cell> = BTreeSet::new();
            for (k, &i) in idx.iter().enumerate() {
                reads.extend(options[k].1[i].reads.iter().copied());
            }
            if reads.len() < best.0 && rebuild_order(options, &idx).is_some() {
                best = (reads.len(), idx.clone());
            }
            let Some(k) = (0..idx.len()).find(|&k| idx[k] + 1 < options[k].1.len()) else {
                return best.1;
            };
            idx[k] += 1;
            idx[..k].fill(0);
        }
    }

    #[test]
    fn bitset_enumeration_matches_the_set_enumeration() {
        use dcode_baselines::registry::all_codes;
        for p in [5usize, 7, 11, 13] {
            for layout in all_codes(p) {
                // EVENODD's S-diagonal cell sits in every diagonal: p·2^(p−2)
                // assignments a column, a minute of set unions past p = 7.
                if layout.name() == "EVENODD" && p > 7 {
                    continue;
                }
                for col in 0..layout.disks() {
                    let options = column_options(&layout, col);
                    let by_sets = assemble(col, &options, &exhaustive_pick_by_sets(&options));
                    let plan = optimal_rebuild(&layout, col);
                    assert_eq!(plan, by_sets, "{} p={p} col {col}", layout.name());
                }
            }
        }
    }

    /// 13 lost cells with three equations each — 3^13 assignments, past
    /// the exhaustive cap. Cell 0 may read 2 cells of its own (what the
    /// greedy seed takes), 3 of which the other cells read 2 anyway, or 4
    /// fresh ones; every other cell reads those shared 2 plus a parity, or
    /// 5 or 6 fresh cells. The optimum is the shared pair, cell 0's third
    /// cell and 12 parities.
    fn three_option_layout() -> CodeLayout {
        use dcode_core::equation::EquationKind;
        use dcode_core::layout::LayoutBuilder;
        const ROWS: usize = 13;
        let mut free = (1..ROWS).flat_map(|col| (0..ROWS).map(move |row| Cell::new(row, col)));
        let mut take = |n: usize| -> Vec<Cell> { free.by_ref().take(n).collect() };
        let mut b = LayoutBuilder::new("three-option", 13, ROWS, ROWS);
        let mut equation = |lost: Cell, shared: &[Cell], mut fresh: Vec<Cell>| {
            let parity = fresh.pop().expect("a parity cell");
            fresh.push(lost);
            fresh.extend_from_slice(shared);
            b.equation(EquationKind::Row, parity, fresh);
        };
        let shared = take(2);
        equation(Cell::new(0, 0), &[], take(2));
        equation(Cell::new(0, 0), &shared, take(1));
        equation(Cell::new(0, 0), &[], take(4));
        for row in 1..ROWS {
            equation(Cell::new(row, 0), &shared, take(1));
            equation(Cell::new(row, 0), &[], take(5));
            equation(Cell::new(row, 0), &[], take(6));
        }
        // Whatever is left of the grid still needs a protecting equation.
        let rest = take(usize::MAX);
        equation(rest[0], &[], rest[1..].to_vec());
        b.build().unwrap()
    }

    #[test]
    fn local_search_returns_the_plan_it_counted() {
        // An accepted flip (cell 0 onto the shared pair) followed by a
        // rejected one used to fall back to the choice from before the
        // accepted flip: the count said 15 and the plan read 16.
        let layout = three_option_layout();
        let plan = optimal_rebuild(&layout, 0);
        assert_eq!(plan.read_count(), 2 + 1 + 12);
        assert_eq!(plan.choices[0].1, 1, "cell 0 reads the shared pair");
    }

    #[test]
    fn recovery_plan_steps_use_survivors_and_earlier_targets() {
        use dcode_baselines::registry::all_codes;
        let mut chained = 0;
        for layout in all_codes(7) {
            for col in 0..layout.disks() {
                let rebuild = optimal_rebuild(&layout, col);
                let plan = rebuild.recovery_plan(&layout);
                let targets: BTreeSet<Cell> = plan.steps.iter().map(|s| s.target).collect();
                assert!(targets.iter().eq(&plan.erased), "{}", layout.name());
                assert!(plan.is_pure_peeling());
                assert_eq!(plan.surviving_reads(), rebuild.reads, "{}", layout.name());
                let mut rebuilt = BTreeSet::new();
                for step in &plan.steps {
                    for source in step.sources.iter().filter(|c| c.col == col) {
                        assert!(rebuilt.contains(source), "{}: {source}", layout.name());
                        chained += 1;
                    }
                    rebuilt.insert(step.target);
                }
            }
        }
        // EVENODD's diagonals hold the column's S-diagonal cell as well.
        assert!(chained > 0);
    }

    #[test]
    fn circular_choices_are_not_a_plan() {
        // EVENODD: the S-diagonal cell of a column and another cell of it
        // both solved from that cell's diagonal wait on each other.
        use dcode_baselines::registry::{build, CodeId};
        let layout = build(CodeId::EvenOdd, 5).unwrap();
        let options = column_options(&layout, 1);
        let (k, shared) = (0..options.len())
            .find_map(|k| {
                let held = options[k].1.iter().find(|o| o.needs != 0)?;
                Some((k, held))
            })
            .expect("a diagonal through two cells of column 1");
        let other = shared.needs.trailing_zeros() as usize;
        let mut pick = vec![0; options.len()];
        assert!(rebuild_order(&options, &pick).is_some(), "row equations");
        pick[k] = options[k].1.iter().position(|o| o.eq == shared.eq).unwrap();
        assert!(rebuild_order(&options, &pick).is_some(), "one cell chained");
        pick[other] = options[other]
            .1
            .iter()
            .position(|o| o.eq == shared.eq)
            .unwrap();
        assert!(rebuild_order(&options, &pick).is_none(), "a circle");
    }

    #[test]
    fn rebuild_covers_every_lost_cell() {
        let l = dcode(7).unwrap();
        for col in 0..7 {
            let plan = optimal_rebuild(&l, col);
            assert_eq!(plan.choices.len(), 7);
        }
    }
}
