//! Symbolic equivalence: prove a compiled program computes exactly what
//! the layout's GF(2) equations demand.
//!
//! The verifier replays a program over [`SymVec`] block values instead of
//! bytes, mirroring the executor's semantics precisely: each op *overwrites*
//! its target with the XOR of its sources (the gather kernel copies the
//! first source, then accumulates — the target's prior value never
//! contributes). Because XOR on byte blocks is GF(2)-linear, the symbolic
//! final state equals the byte-level final state for every payload; agreement
//! with the intended state is therefore a proof, not a test.
//!
//! The *intended* state comes from
//! [`dcode_codec::bitmatrix::generator_matrix`], which expands every parity
//! into pure data-symbol form in encode order — the same ground truth the
//! byte-level cross-check tests against.

use crate::diag::{DiagKind, Diagnostic};
use crate::sym::SymVec;
use dcode_codec::{generator_matrix, XorProgram};
use dcode_core::grid::{Cell, CellKind};
use dcode_core::layout::CodeLayout;
use std::collections::BTreeSet;

/// The value every block must hold in a fully-encoded stripe: unit vectors
/// on data cells, the generator-matrix row on parity cells. Indexed by
/// linear grid index.
pub fn intended_state(layout: &CodeLayout) -> Vec<SymVec> {
    let grid = layout.grid();
    let dim = layout.data_len();
    let matrix = generator_matrix(layout);
    grid.cells()
        .map(|cell| match layout.kind(cell) {
            CellKind::Data => SymVec::unit(
                dim,
                layout
                    .logical_of(cell)
                    .expect("data cell has logical index"),
            ),
            CellKind::Parity(eq) => {
                let mut v = SymVec::zero(dim);
                for j in 0..dim {
                    if matrix.get(eq, j) {
                        v.toggle(j);
                    }
                }
                v
            }
        })
        .collect()
}

/// Replay `program` symbolically from `state` (indexed by linear grid
/// index), mirroring [`XorProgram::run`]'s sequential overwrite semantics.
/// Out-of-range references abort the replay and are returned as
/// diagnostics — a structurally broken program proves nothing.
pub fn run_symbolic(program: &XorProgram, state: &mut [SymVec]) -> Vec<Diagnostic> {
    let dim = state.first().map_or(0, SymVec::dim);
    for op in 0..program.op_count() {
        let target = program.op_target(op);
        if target >= state.len() {
            return vec![Diagnostic::error(DiagKind::OutOfRange {
                op,
                block: target,
            })];
        }
        let mut acc = SymVec::zero(dim);
        for &s in program.op_sources(op) {
            let s = s as usize;
            if s >= state.len() {
                return vec![Diagnostic::error(DiagKind::OutOfRange { op, block: s })];
            }
            acc.xor_assign(&state[s]);
        }
        state[target] = acc;
    }
    Vec::new()
}

fn compare_to_intended(
    layout: &CodeLayout,
    state: &[SymVec],
    intended: &[SymVec],
) -> Vec<Diagnostic> {
    let grid = layout.grid();
    grid.cells()
        .filter(|&cell| state[grid.index(cell)] != intended[grid.index(cell)])
        .map(|cell| {
            Diagnostic::error(DiagKind::WrongSymbols {
                cell,
                expected: intended[grid.index(cell)].symbols(),
                actual: state[grid.index(cell)].symbols(),
            })
        })
        .collect()
}

/// Prove `program` is a correct full-stripe encode for `layout`: starting
/// from pristine data and zeroed parity, sequential replay must leave
/// every block at its intended value. Empty result = proved, for every
/// payload and block size.
pub fn verify_encode_program(layout: &CodeLayout, program: &XorProgram) -> Vec<Diagnostic> {
    assert_eq!(
        program.grid(),
        layout.grid(),
        "program compiled for a different grid"
    );
    let grid = layout.grid();
    let dim = layout.data_len();
    let mut state: Vec<SymVec> = grid
        .cells()
        .map(|cell| match layout.logical_of(cell) {
            Some(j) => SymVec::unit(dim, j),
            None => SymVec::zero(dim),
        })
        .collect();
    let structural = run_symbolic(program, &mut state);
    if !structural.is_empty() {
        return structural;
    }
    compare_to_intended(layout, &state, &intended_state(layout))
}

/// Prove `program` is a correct recovery for the erasure of `erased` cells:
/// starting from the intended encoded state with the erased blocks zeroed
/// (exactly what [`dcode_codec::Stripe::erase_columns`] leaves behind),
/// replay must restore every erased block *and* leave every survivor
/// untouched. Empty result = proved.
pub fn verify_plan_program(
    layout: &CodeLayout,
    program: &XorProgram,
    erased: &BTreeSet<Cell>,
) -> Vec<Diagnostic> {
    assert_eq!(
        program.grid(),
        layout.grid(),
        "program compiled for a different grid"
    );
    let grid = layout.grid();
    let intended = intended_state(layout);
    let mut state = intended.clone();
    for &cell in erased {
        state[grid.index(cell)] = SymVec::zero(layout.data_len());
    }
    let structural = run_symbolic(program, &mut state);
    if !structural.is_empty() {
        return structural;
    }
    compare_to_intended(layout, &state, &intended)
}

/// Prove a degraded-read *subprogram* restores exactly the `wanted`
/// cells under the erasure of `erased`, while leaving every survivor
/// untouched. Unlike [`verify_plan_program`], blocks in `erased ∖
/// wanted` are unconstrained at the end: a subprogram cut to the wanted
/// cells restores only those its recovery chains pass through, and the
/// rest keep whatever the erased state held (the array layer reads only
/// the wanted cells after replay). Empty result = proved.
pub fn verify_subprogram(
    layout: &CodeLayout,
    program: &XorProgram,
    erased: &BTreeSet<Cell>,
    wanted: &BTreeSet<Cell>,
) -> Vec<Diagnostic> {
    assert_eq!(
        program.grid(),
        layout.grid(),
        "program compiled for a different grid"
    );
    debug_assert!(
        wanted.is_subset(erased),
        "wanted cells must be a subset of the erased cells"
    );
    let grid = layout.grid();
    let intended = intended_state(layout);
    let mut state = intended.clone();
    for &cell in erased {
        state[grid.index(cell)] = SymVec::zero(layout.data_len());
    }
    let structural = run_symbolic(program, &mut state);
    if !structural.is_empty() {
        return structural;
    }
    grid.cells()
        .filter(|cell| !erased.contains(cell) || wanted.contains(cell))
        .filter(|&cell| state[grid.index(cell)] != intended[grid.index(cell)])
        .map(|cell| {
            Diagnostic::error(DiagKind::WrongSymbols {
                cell,
                expected: intended[grid.index(cell)].symbols(),
                actual: state[grid.index(cell)].symbols(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_baselines::registry::all_codes;
    use dcode_core::decoder::plan_column_recovery;

    #[test]
    fn encode_programs_prove_equivalent() {
        for p in [5usize, 7, 11] {
            for layout in all_codes(p) {
                let prog = XorProgram::compile_encode(&layout);
                let diags = verify_encode_program(&layout, &prog);
                assert!(diags.is_empty(), "{} p={p}: {diags:?}", layout.name());
            }
        }
    }

    #[test]
    fn recovery_programs_prove_equivalent() {
        for layout in all_codes(7) {
            for c1 in 0..layout.disks() {
                for c2 in c1 + 1..layout.disks() {
                    let plan = plan_column_recovery(&layout, &[c1, c2]).unwrap();
                    let prog = XorProgram::compile_plan(layout.grid(), &plan);
                    let erased: BTreeSet<Cell> = layout
                        .grid()
                        .column(c1)
                        .chain(layout.grid().column(c2))
                        .collect();
                    let diags = verify_plan_program(&layout, &prog, &erased);
                    assert!(
                        diags.is_empty(),
                        "{} cols=({c1},{c2}): {diags:?}",
                        layout.name()
                    );
                }
            }
        }
    }

    #[test]
    fn intended_state_weight_matches_generator_rows() {
        let layout = dcode_core::dcode::dcode(7).unwrap();
        let intended = intended_state(&layout);
        // Every D-Code parity is the XOR of exactly n−2 data symbols.
        for cell in layout.parity_cells() {
            assert_eq!(intended[layout.grid().index(cell)].weight(), 5);
        }
    }
}
