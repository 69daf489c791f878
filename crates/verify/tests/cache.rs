//! The schedule cache hands out exactly what the compiler emits: every
//! cached program equals the direct compile of its plan and is clean
//! under the verifier's lints and the analyzer's peephole pass. The
//! programs — the minimum-read subprograms it plans under one erased
//! column included — are GF(2)-equivalent to the generator matrices, and
//! steady-state fetches are pointer-identical (no recompilation) — so the
//! hot path's correctness rests on exactly one verified compile per key.

use std::collections::BTreeSet;
use std::sync::Arc;

use dcode_baselines::registry::{build, ALL_CODES};
use dcode_codec::{ScheduleCache, XorProgram};
use dcode_core::decoder::plan_column_recovery;
use dcode_core::grid::{Cell, Grid};
use dcode_recovery::optimal_rebuild;
use dcode_verify::{lint, peephole, verify_encode_program, verify_plan_program, verify_subprogram};

/// The primes every registry code is swept at.
const PRIMES: [usize; 5] = [5, 7, 11, 13, 17];

/// `cached` is the direct compile, and neither the verifier's lints nor
/// the analyzer's peephole pass (with `wanted` as the outputs) fires.
fn assert_direct_and_clean(
    what: &str,
    grid: Grid,
    cached: &XorProgram,
    direct: &XorProgram,
    wanted: impl IntoIterator<Item = Cell>,
) {
    assert_eq!(
        cached, direct,
        "{what}: cached program is not the direct compile"
    );
    let outputs: BTreeSet<usize> = wanted.into_iter().map(|c| grid.index(c)).collect();
    let lints = lint(cached);
    assert!(lints.is_empty(), "{what}: {lints:#?}");
    let peeps = peephole(cached, &outputs);
    assert!(peeps.is_empty(), "{what}: {peeps:#?}");
}

#[test]
fn cached_programs_are_the_direct_compiles_and_lint_clean() {
    // Every registry code at every sweep prime: the encode program, every
    // two-column recovery, every single-column minimum-read rebuild, and
    // the degraded-read subprograms that restore column 0 under each
    // two-column erasure that includes it.
    for p in PRIMES {
        for &id in &ALL_CODES {
            let layout = build(id, p).unwrap();
            let grid = layout.grid();
            let disks = layout.disks();
            let cache = ScheduleCache::new();
            let name = format!("{} p={p}", id.name());

            let encode = cache.encode_program(&layout);
            let parities = layout.parity_cells();
            let direct = XorProgram::compile_encode(&layout);
            assert_direct_and_clean(&format!("{name} encode"), grid, &encode, &direct, parities);

            for c1 in 0..disks {
                for c2 in c1 + 1..disks {
                    let cached = cache.column_program(&layout, &[c1, c2]).unwrap();
                    let plan = plan_column_recovery(&layout, &[c1, c2]).unwrap();
                    assert_direct_and_clean(
                        &format!("{name} recovery of {c1},{c2}"),
                        grid,
                        &cached.program,
                        &XorProgram::compile_plan(grid, &plan),
                        plan.erased.iter().copied(),
                    );
                }
            }

            for col in 0..disks {
                let column: BTreeSet<Cell> = grid.column(col).collect();
                let cached = cache
                    .recovery_subprogram(&layout, [col].into_iter(), &column, &BTreeSet::new())
                    .unwrap();
                let plan = optimal_rebuild(&layout, col).recovery_plan(&layout);
                assert_direct_and_clean(
                    &format!("{name} rebuild of {col}"),
                    grid,
                    &cached.program,
                    &XorProgram::compile_plan(grid, &plan),
                    column,
                );
            }

            let wanted: BTreeSet<Cell> = grid.column(0).collect();
            for partner in 1..disks {
                let cols = [0, partner];
                let cached = cache
                    .recovery_subprogram(&layout, cols.into_iter(), &wanted, &BTreeSet::new())
                    .unwrap();
                let plan = plan_column_recovery(&layout, &cols)
                    .unwrap()
                    .subplan_for(&wanted);
                assert_direct_and_clean(
                    &format!("{name} column 0 under erasure of 0,{partner}"),
                    grid,
                    &cached.program,
                    &XorProgram::compile_plan(grid, &plan),
                    wanted.iter().copied(),
                );
            }
        }
    }
}

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
    // other erased column are unconstrained: the subprogram restores only
    // those its recovery chains pass through.
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
