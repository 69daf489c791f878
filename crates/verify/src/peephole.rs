//! Peephole lints over compiled programs.
//!
//! Builds on the structural [`lint`](crate::lint()) pass (range, self-references,
//! duplicate/even-multiplicity sources, dead ops) and adds the analyses
//! that need output context or a cost model:
//!
//! * **duplicate expressions** — an op recomputing the exact XOR value an
//!   earlier op produced (no shared source rewritten in between), i.e. a
//!   missed common-subexpression elimination;
//! * **unread results** — ops whose value is never read, never
//!   overwritten, and not an expected output block (dead scratch writes
//!   and never-read outputs);
//! * **working-set estimates** — per op, its gather plus its target at
//!   one [`TILE_BYTES`] tile each, checked against
//!   [`WORKING_SET_BUDGET_BYTES`].
//!
//! Everything reports through the crate's [`Diagnostic`] vocabulary, so
//! the CLI, CI, and the mutation suite match on structured kinds.

use crate::diag::{DiagKind, Diagnostic};
use dcode_codec::xor::TILE_BYTES;
use dcode_codec::XorProgram;
use std::collections::{BTreeMap, BTreeSet};

/// Working-set budget for one op: its source tiles plus the target tile
/// must fit comfortably in cache. Sized
/// at 256 tiles (4 MiB at the kernel's 16 KiB [`TILE_BYTES`]) — the widest
/// registry gather (EVENODD's p = 17 Gaussian recovery step, 151 sources,
/// ~2.4 MiB) stays inside, while a schedule flattened into whole-stripe
/// gathers trips it.
pub const WORKING_SET_BUDGET_BYTES: usize = 256 * TILE_BYTES;

/// The peephole lints: duplicate expressions, unread results and
/// oversized working sets. `expected_outputs` lists the linear block
/// indices the program exists to produce (parity blocks for an encode,
/// erased blocks for a recovery); a final write to any other block that
/// nothing reads is flagged.
pub fn peephole(program: &XorProgram, expected_outputs: &BTreeSet<usize>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    duplicate_expressions(program, &mut out);
    unread_results(program, expected_outputs, &mut out);
    oversized_working_sets(program, &mut out);
    out
}

/// Flag ops that recompute a value an earlier op already holds: same
/// source multiset, and none of those sources (nor the earlier target)
/// rewritten in between — the later op could copy, or be eliminated.
fn duplicate_expressions(program: &XorProgram, out: &mut Vec<Diagnostic>) {
    // Canonical source key -> op that computed it, invalidated when any
    // key member or the producing target is overwritten.
    let mut live: BTreeMap<Vec<u32>, usize> = BTreeMap::new();
    for op in 0..program.op_count() {
        let mut key: Vec<u32> = program.op_sources(op).to_vec();
        key.sort_unstable();
        if let Some(&earlier_op) = live.get(&key) {
            out.push(Diagnostic::warning(DiagKind::DuplicateExpression {
                op,
                earlier_op,
            }));
        }
        let target = program.op_target(op) as u32;
        live.retain(|k, &mut producer| {
            !k.contains(&target) && program.op_target(producer) as u32 != target
        });
        live.insert(key, op);
    }
}

/// Flag final writes nothing consumes: not read by a later op, not
/// overwritten (that is `DeadOp` territory), and not an expected output.
fn unread_results(
    program: &XorProgram,
    expected_outputs: &BTreeSet<usize>,
    out: &mut Vec<Diagnostic>,
) {
    // Walk backwards: a target is unread if no later op sources it and no
    // later op overwrites it.
    let mut read_later: BTreeSet<usize> = BTreeSet::new();
    let mut written_later: BTreeSet<usize> = BTreeSet::new();
    let mut findings = Vec::new();
    for op in (0..program.op_count()).rev() {
        let target = program.op_target(op);
        if !read_later.contains(&target)
            && !written_later.contains(&target)
            && !expected_outputs.contains(&target)
        {
            findings.push(Diagnostic::warning(DiagKind::UnreadResult {
                op,
                block: target,
            }));
        }
        written_later.insert(target);
        for &s in program.op_sources(op) {
            read_later.insert(s as usize);
        }
    }
    findings.reverse();
    out.extend(findings);
}

/// Per-op working-set estimates vs [`WORKING_SET_BUDGET_BYTES`]: the
/// op's gather plus its target, at one tile per block.
fn oversized_working_sets(program: &XorProgram, out: &mut Vec<Diagnostic>) {
    for op in 0..program.op_count() {
        let bytes = (program.op_sources(op).len() + 1) * TILE_BYTES;
        if bytes > WORKING_SET_BUDGET_BYTES {
            out.push(Diagnostic::warning(DiagKind::OversizedWorkingSet {
                op,
                bytes,
                budget: WORKING_SET_BUDGET_BYTES,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_baselines::registry::all_codes;
    use dcode_core::grid::Grid;

    fn toy_program(targets: Vec<u32>, srcs: Vec<Vec<u32>>) -> XorProgram {
        let mut src_off = vec![0u32];
        let mut sources = Vec::new();
        for s in srcs {
            sources.extend_from_slice(&s);
            src_off.push(sources.len() as u32);
        }
        XorProgram::from_raw_parts(Grid::new(4, 4), targets, src_off, sources)
    }

    #[test]
    fn compiled_registry_programs_are_peephole_clean() {
        for p in [5usize, 7, 11] {
            for layout in all_codes(p) {
                let grid = layout.grid();
                let program = XorProgram::compile_encode(&layout);
                let outputs: BTreeSet<usize> = (0..program.op_count())
                    .map(|op| program.op_target(op))
                    .collect();
                let diags = peephole(&program, &outputs);
                assert!(diags.is_empty(), "{} p={p}: {diags:?}", layout.name());
                let plan = dcode_core::decoder::plan_column_recovery(&layout, &[0, 1]).unwrap();
                let prog = XorProgram::compile_plan(grid, &plan);
                let outputs: BTreeSet<usize> = plan.erased.iter().map(|&c| grid.index(c)).collect();
                let diags = peephole(&prog, &outputs);
                assert!(diags.is_empty(), "{} p={p}: {diags:?}", layout.name());
            }
        }
    }

    #[test]
    fn duplicate_expression_is_flagged_and_invalidation_respected() {
        // op0: b12 = b0^b1; op1: b13 = b0^b1  -> duplicate.
        let prog = toy_program(vec![12, 13], vec![vec![0, 1], vec![1, 0]]);
        let diags = peephole(&prog, &BTreeSet::from([12, 13]));
        assert_eq!(
            diags,
            vec![Diagnostic::warning(DiagKind::DuplicateExpression {
                op: 1,
                earlier_op: 0
            })]
        );
        // op0: b12 = b0^b1; op1: b0 = b2^b3; op2: b13 = b0^b1 -> NOT a
        // duplicate (b0 was rewritten in between).
        let prog = toy_program(vec![12, 0, 13], vec![vec![0, 1], vec![2, 3], vec![0, 1]]);
        assert!(peephole(&prog, &BTreeSet::from([12, 0, 13])).is_empty());
    }

    #[test]
    fn unread_scratch_write_is_flagged_but_outputs_are_not() {
        // op0 writes b5, nothing reads it, and only b12 is an output.
        let prog = toy_program(vec![5, 12], vec![vec![0, 1], vec![2, 3]]);
        let diags = peephole(&prog, &BTreeSet::from([12]));
        assert_eq!(
            diags,
            vec![Diagnostic::warning(DiagKind::UnreadResult {
                op: 0,
                block: 5
            })]
        );
        // Same program with b5 declared an output: clean.
        assert!(peephole(&prog, &BTreeSet::from([5, 12])).is_empty());
        // And a scratch write that IS read later: clean.
        let prog = toy_program(vec![5, 12], vec![vec![0, 1], vec![5, 3]]);
        assert!(peephole(&prog, &BTreeSet::from([12])).is_empty());
    }

    #[test]
    fn oversized_working_set_is_flagged() {
        // One op gathering 256 sources: (256+1) tiles > the 256-tile
        // budget.
        let grid = Grid::new(17, 17);
        let sources: Vec<u32> = (0..256u32).collect();
        let prog = XorProgram::from_raw_parts(grid, vec![288], vec![0, 256], sources);
        let diags = peephole(&prog, &BTreeSet::from([288]));
        assert_eq!(diags.len(), 1);
        assert!(matches!(
            diags[0].kind,
            DiagKind::OversizedWorkingSet { op: 0, .. }
        ));
    }
}
