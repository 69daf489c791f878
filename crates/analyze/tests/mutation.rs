//! Mutation self-tests: corrupt a known-good compiled program in specific
//! ways and prove the analyzer flags each corruption. If a mutation class
//! here stops being detected, the lint tier has silently lost teeth.

use dcode_analyze::{analyze_program, encode_xors_per_data_element, program_xor_cost, ClaimCheck};
use dcode_codec::XorProgram;
use dcode_core::dcode::dcode;
use dcode_core::grid::Grid;
use dcode_core::layout::CodeLayout;
use dcode_verify::{DiagKind, Diagnostic};
use std::collections::BTreeSet;

/// The known-good base: D-Code p=7's compiled encode (14 ops, 1 level).
fn base() -> (CodeLayout, XorProgram) {
    let layout = dcode(7).unwrap();
    let program = XorProgram::compile_encode(&layout);
    (layout, program)
}

fn outputs(program: &XorProgram) -> BTreeSet<usize> {
    (0..program.op_count())
        .map(|op| program.op_target(op))
        .collect()
}

fn kinds(diags: &[Diagnostic]) -> Vec<&DiagKind> {
    diags.iter().map(|d| &d.kind).collect()
}

#[test]
fn clean_baseline() {
    let (_, program) = base();
    assert!(analyze_program(&program, &outputs(&program)).is_empty());
}

#[test]
fn mutation_redundant_op_is_flagged() {
    // Append an exact clone of op 0 as a new final level: the analyzer
    // must see both the recomputation (DuplicateExpression) and the
    // shadowed first write (DeadOp).
    let (_, program) = base();
    let expected = outputs(&program);
    let (mut targets, mut src_off, mut sources, mut level_off) = program.raw_parts();
    targets.push(targets[0]);
    let op0: Vec<u32> = sources[src_off[0] as usize..src_off[1] as usize].to_vec();
    sources.extend_from_slice(&op0);
    src_off.push(*src_off.last().unwrap() + op0.len() as u32);
    level_off.push(targets.len() as u32);
    let mutated = XorProgram::from_raw_parts(program.grid(), targets, src_off, sources, level_off);

    let diags = analyze_program(&mutated, &expected);
    let k = kinds(&diags);
    assert!(
        k.iter()
            .any(|k| matches!(k, DiagKind::DuplicateExpression { earlier_op: 0, .. })),
        "{diags:?}"
    );
    assert!(
        k.iter()
            .any(|k| matches!(k, DiagKind::DeadOp { op: 0, .. })),
        "{diags:?}"
    );
}

#[test]
fn mutation_extra_source_is_flagged_and_misses_the_claim() {
    // Pad op 0 with a second copy of its first source. The bytes still
    // come out right (x ^ x = 0 twice over), but the schedule does extra
    // work: the lint fires and the paper's encode claim goes from pass to
    // miss on the mutated artifact.
    let (layout, program) = base();
    let expected = outputs(&program);
    let (targets, mut src_off, mut sources, level_off) = program.raw_parts();
    sources.insert(src_off[1] as usize, sources[src_off[0] as usize]);
    for off in src_off.iter_mut().skip(1) {
        *off += 1;
    }
    let mutated = XorProgram::from_raw_parts(program.grid(), targets, src_off, sources, level_off);

    let diags = analyze_program(&mutated, &expected);
    assert!(
        kinds(&diags)
            .iter()
            .any(|k| matches!(k, DiagKind::DuplicateSource { op: 0, .. })),
        "{diags:?}"
    );
    assert_eq!(program_xor_cost(&mutated), program_xor_cost(&program) + 1);
    let claim = ClaimCheck::check(
        "encode XORs per data element",
        "2 - 2/(p-2)",
        1.6,
        encode_xors_per_data_element(&layout, &mutated),
    );
    assert!(!claim.pass, "{claim}");
}

#[test]
fn mutation_serialized_level_is_flagged() {
    // Split D-Code's single level in two. Every op in the new second
    // level could have run in the first — the analyzer must call each one
    // hoistable, and the critical-path bound must degrade.
    let (_, program) = base();
    let expected = outputs(&program);
    let (targets, src_off, sources, _) = program.raw_parts();
    let n = targets.len() as u32;
    let mutated =
        XorProgram::from_raw_parts(program.grid(), targets, src_off, sources, vec![0, n / 2, n]);

    let diags = analyze_program(&mutated, &expected);
    let hoistable = kinds(&diags)
        .iter()
        .filter(|k| matches!(k, DiagKind::HoistableOp { level: 1, .. }))
        .count();
    assert_eq!(hoistable, (n - n / 2) as usize, "{diags:?}");
    let orig = dcode_analyze::critical_path(&program);
    let worse = dcode_analyze::critical_path(&mutated);
    assert!(worse.speedup_bound < orig.speedup_bound);
}

#[test]
fn mutation_dead_scratch_write_is_flagged() {
    // Append an op computing into a block nothing reads and no output
    // needs: a dead scratch write (UnreadResult).
    let (_, program) = base();
    let expected = outputs(&program);
    let grid = program.grid();
    let scratch = (0..grid.len() as u32)
        .find(|b| !expected.contains(&(*b as usize)))
        .unwrap();
    let (mut targets, mut src_off, mut sources, mut level_off) = program.raw_parts();
    let new_op = targets.len();
    targets.push(scratch);
    sources.extend_from_slice(&[0, 1]);
    src_off.push(*src_off.last().unwrap() + 2);
    level_off.push(targets.len() as u32);
    let mutated = XorProgram::from_raw_parts(grid, targets, src_off, sources, level_off);

    let diags = analyze_program(&mutated, &expected);
    assert!(
        kinds(&diags).iter().any(|k| matches!(
            k,
            DiagKind::UnreadResult { op, .. } if *op == new_op
        )),
        "{diags:?}"
    );
}

#[test]
fn mutation_shadowed_scratch_write_is_flagged() {
    // Append two writes of different expressions to one non-parity block,
    // each in its own level: the block is a wanted output, but the first
    // write is overwritten before anything reads it (DeadOp).
    let (_, program) = base();
    let mut expected = outputs(&program);
    let grid = program.grid();
    let free: Vec<u32> = (0..grid.len() as u32)
        .filter(|b| !expected.contains(&(*b as usize)))
        .take(5)
        .collect();
    let scratch = free[0];
    expected.insert(scratch as usize);
    let (mut targets, mut src_off, mut sources, mut level_off) = program.raw_parts();
    let first = targets.len();
    for pair in [[free[1], free[2]], [free[3], free[4]]] {
        targets.push(scratch);
        sources.extend_from_slice(&pair);
        src_off.push(sources.len() as u32);
        level_off.push(targets.len() as u32);
    }
    let mutated = XorProgram::from_raw_parts(grid, targets, src_off, sources, level_off);

    let diags = analyze_program(&mutated, &expected);
    assert!(
        kinds(&diags).iter().any(|k| matches!(
            k,
            DiagKind::DeadOp { op, shadowed_by } if *op == first && *shadowed_by == first + 1
        )),
        "{diags:?}"
    );
}

#[test]
fn mutation_whole_stripe_gather_is_flagged() {
    // Flatten the schedule into one op gathering 300 blocks: the
    // per-level working-set estimate must exceed the budget.
    let grid = Grid::new(18, 18);
    let sources: Vec<u32> = (0..300u32).collect();
    let mutated = XorProgram::from_raw_parts(grid, vec![323], vec![0, 300], sources, vec![0, 1]);
    let diags = analyze_program(&mutated, &BTreeSet::from([323]));
    assert!(
        kinds(&diags)
            .iter()
            .any(|k| matches!(k, DiagKind::OversizedWorkingSet { level: 0, .. })),
        "{diags:?}"
    );
}
