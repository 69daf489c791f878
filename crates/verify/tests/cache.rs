//! Symbolic proofs for the schedule cache: the programs the cache hands
//! out — the minimum-read subprograms it plans under one erased column
//! included — are GF(2)-equivalent to the generator matrices, and
//! steady-state fetches are pointer-identical (no recompilation) — so the
//! hot path's correctness rests on exactly one verified compile per key.

use std::collections::BTreeSet;
use std::sync::Arc;

use dcode_baselines::registry::{build, ALL_CODES};
use dcode_codec::ScheduleCache;
use dcode_core::grid::Cell;
use dcode_verify::{verify_encode_program, verify_plan_program, verify_subprogram};

#[test]
fn cached_encode_programs_prove_equivalent_and_stable() {
    let cache = ScheduleCache::new();
    for &id in &ALL_CODES {
        let layout = build(id, 7).unwrap();
        let program = cache.encode_program(&layout);
        let diags = verify_encode_program(&layout, &program);
        assert!(diags.is_empty(), "{} p=7: {diags:#?}", id.name());
        // A second fetch must be the very same compilation.
        let again = cache.encode_program(&layout);
        assert!(Arc::ptr_eq(&program, &again), "{} recompiled", id.name());
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, ALL_CODES.len() as u64);
    assert_eq!(stats.hits, ALL_CODES.len() as u64);
}

#[test]
fn cached_column_recoveries_prove_equivalent_and_stable() {
    let cache = ScheduleCache::new();
    for &id in &ALL_CODES {
        let layout = build(id, 7).unwrap();
        let grid = layout.grid();
        for cols in [&[1usize][..], &[0, 2][..]] {
            let compiled = cache.column_program(&layout, cols).unwrap();
            let erased: BTreeSet<Cell> = cols.iter().flat_map(|&c| grid.column(c)).collect();
            let diags = verify_plan_program(&layout, &compiled.program, &erased);
            assert!(diags.is_empty(), "{} cols={cols:?}: {diags:#?}", id.name());
            let again = cache.column_program(&layout, cols).unwrap();
            assert!(
                Arc::ptr_eq(&compiled.program, &again.program),
                "{} cols={cols:?} recompiled",
                id.name()
            );
        }
    }
}

#[test]
fn cached_subprograms_prove_equivalent_and_stable() {
    // A degraded read of one lost column under a double erasure: starting
    // from an intended state with BOTH erased columns zeroed (what the
    // degraded array actually holds), the subprogram must restore exactly
    // the wanted cells and leave every survivor untouched. Cells of the
    // other erased column are unconstrained — the cache's optimizer
    // pipeline scratch-colors them, so they may end holding intermediates.
    let cache = ScheduleCache::new();
    for &id in &ALL_CODES {
        let layout = build(id, 7).unwrap();
        let grid = layout.grid();
        let cols = [0usize, 2];
        let missing: BTreeSet<Cell> = grid.column(0).collect();
        let erased: BTreeSet<Cell> = cols.iter().flat_map(|&c| grid.column(c)).collect();
        let compiled = cache
            .recovery_subprogram(&layout, cols.iter().copied(), &missing, &BTreeSet::new())
            .unwrap();
        let diags = verify_subprogram(&layout, &compiled.program, &erased, &missing);
        assert!(diags.is_empty(), "{} p=7: {diags:#?}", id.name());
        assert!(
            compiled.certificate.holds(),
            "{} subprogram certificate does not hold",
            id.name()
        );
        let again = cache
            .recovery_subprogram(&layout, cols.iter().copied(), &missing, &BTreeSet::new())
            .unwrap();
        assert!(
            Arc::ptr_eq(&compiled.program, &again.program),
            "{} subprogram recompiled",
            id.name()
        );
    }
}

#[test]
fn cached_minimum_read_subprograms_prove_equivalent_and_stable() {
    // Under one erased column the cache compiles the minimum-read search's
    // choice for the wanted cells, given the survivors already read: the
    // whole column with nothing read (a rebuild), each single cell with
    // nothing read, and every run of rows from the top with the survivors
    // of those rows read (a row-major degraded read). Each must restore
    // exactly the wanted cells and leave every survivor untouched.
    for p in [5usize, 7] {
        for &id in &ALL_CODES {
            let layout = build(id, p).unwrap();
            let grid = layout.grid();
            let cache = ScheduleCache::new();
            for col in 0..grid.cols {
                let column: BTreeSet<Cell> = grid.column(col).collect();
                let mut cases = vec![(column.clone(), BTreeSet::new())];
                for &cell in &column {
                    cases.push((BTreeSet::from([cell]), BTreeSet::new()));
                    let rows = |c: &Cell| c.row <= cell.row;
                    let loaded = grid.cells().filter(|c| c.col != col && rows(c)).collect();
                    cases.push((column.iter().copied().filter(rows).collect(), loaded));
                }
                for (wanted, loaded) in &cases {
                    let what = format!("{} p={p} col {col} wanted {wanted:?}", id.name());
                    let cols = [col].into_iter();
                    let compiled = cache
                        .recovery_subprogram(&layout, cols.clone(), wanted, loaded)
                        .unwrap();
                    let diags = verify_subprogram(&layout, &compiled.program, &column, wanted);
                    assert!(diags.is_empty(), "{what}: {diags:#?}");
                    assert!(compiled.certificate.holds(), "{what}: certificate");
                    assert!(
                        compiled.reads.iter().all(|c| c.col != col),
                        "{what} reads the failed disk"
                    );
                    let again = cache
                        .recovery_subprogram(&layout, cols, wanted, loaded)
                        .unwrap();
                    assert!(
                        Arc::ptr_eq(&compiled.program, &again.program),
                        "{what} recompiled"
                    );
                }
            }
        }
    }
}
