//! Guarding the guard: corrupt valid compiled programs and prove the
//! verifier rejects every corruption class. A verifier that accepts
//! mutants would give exactly the false confidence this crate exists to
//! remove, so each injected fault must surface as at least one diagnostic
//! from the pass that owns it — equivalence, the schedule lints, the
//! peephole lints, or a claim.

use dcode_codec::XorProgram;
use dcode_core::dcode::dcode;
use dcode_core::decoder::plan_column_recovery;
use dcode_core::grid::{Cell, Grid};
use dcode_core::layout::CodeLayout;
use dcode_verify::{
    encode_xors_per_data_element, lint, peephole, program_xor_cost, verify_encode_program,
    verify_plan_program, ClaimCheck, DiagKind, Diagnostic,
};
use std::collections::BTreeSet;

fn layouts() -> Vec<CodeLayout> {
    vec![
        dcode_core::dcode::dcode(7).unwrap(),
        dcode_core::dcode::xcode(7).unwrap(),
        dcode_baselines::rdp::rdp(7).unwrap(),
        dcode_baselines::evenodd::evenodd(5).unwrap(),
    ]
}

/// Rebuild a program with one field edited via the raw arrays.
fn mutate(
    prog: &XorProgram,
    f: impl FnOnce(&mut Vec<u32>, &mut Vec<u32>, &mut Vec<u32>),
) -> XorProgram {
    let (mut targets, mut src_off, mut sources) = prog.raw_parts();
    f(&mut targets, &mut src_off, &mut sources);
    XorProgram::from_raw_parts(prog.grid(), targets, src_off, sources)
}

/// Rebuild a program from a list of `(target, sources)` ops.
fn from_ops(grid: Grid, ops: &[(u32, Vec<u32>)]) -> XorProgram {
    let mut src_off = vec![0u32];
    let mut sources = Vec::new();
    for (_, srcs) in ops {
        sources.extend_from_slice(srcs);
        src_off.push(sources.len() as u32);
    }
    let targets = ops.iter().map(|&(t, _)| t).collect();
    XorProgram::from_raw_parts(grid, targets, src_off, sources)
}

/// `prog` as a list of `(target, sources)` ops.
fn ops_of(prog: &XorProgram) -> Vec<(u32, Vec<u32>)> {
    (0..prog.op_count())
        .map(|op| (prog.op_target(op) as u32, prog.op_sources(op).to_vec()))
        .collect()
}

/// `prog` with `extra` ops appended.
fn append(prog: &XorProgram, extra: &[(u32, Vec<u32>)]) -> XorProgram {
    let mut ops = ops_of(prog);
    ops.extend_from_slice(extra);
    from_ops(prog.grid(), &ops)
}

/// Both structural tiers, as the driver runs them: lints, then peephole
/// with `outputs` as the blocks the program exists to write.
fn structural(program: &XorProgram, outputs: &BTreeSet<usize>) -> Vec<Diagnostic> {
    let mut diags = lint(program);
    diags.extend(peephole(program, outputs));
    diags
}

/// The blocks `program` writes.
fn outputs(program: &XorProgram) -> BTreeSet<usize> {
    (0..program.op_count())
        .map(|op| program.op_target(op))
        .collect()
}

fn has(diags: &[Diagnostic], pred: impl Fn(&DiagKind) -> bool) -> bool {
    diags.iter().any(|d| pred(&d.kind))
}

#[test]
fn swapped_source_is_rejected() {
    for layout in layouts() {
        let prog = XorProgram::compile_encode(&layout);
        // Redirect op 0's first source to a different block: the symbolic
        // sum changes, so equivalence must flag the target.
        let original = prog.op_sources(0)[0];
        let replacement = (0..layout.grid().len() as u32)
            .find(|&b| {
                b != original && b != prog.op_target(0) as u32 && !prog.op_sources(0).contains(&b)
            })
            .expect("grid has a spare block");
        let mutant = mutate(&prog, |_, _, sources| sources[0] = replacement);
        let diags = verify_encode_program(&layout, &mutant);
        assert!(
            diags
                .iter()
                .any(|d| matches!(d.kind, DiagKind::WrongSymbols { .. })),
            "{}: swapped source not caught: {diags:?}",
            layout.name()
        );
    }
}

#[test]
fn dropped_source_is_rejected() {
    for layout in layouts() {
        let prog = XorProgram::compile_encode(&layout);
        // Remove op 0's last source (shrink its src_off window; every later
        // offset shifts down by one).
        let mutant = mutate(&prog, |_, src_off, sources| {
            let cut = src_off[1] as usize - 1;
            sources.remove(cut);
            for off in src_off.iter_mut().skip(1) {
                *off -= 1;
            }
        });
        let diags = verify_encode_program(&layout, &mutant);
        assert!(
            diags
                .iter()
                .any(|d| matches!(d.kind, DiagKind::WrongSymbols { .. })),
            "{}: dropped source not caught: {diags:?}",
            layout.name()
        );
    }
}

#[test]
fn duplicated_source_is_rejected() {
    for layout in layouts() {
        let prog = XorProgram::compile_encode(&layout);
        // Append a copy of op 0's first source: even multiplicity cancels
        // its contribution, so both the linter and equivalence must object.
        let mutant = mutate(&prog, |_, src_off, sources| {
            let dup = sources[0];
            sources.insert(src_off[1] as usize, dup);
            for off in src_off.iter_mut().skip(1) {
                *off += 1;
            }
        });
        let lints = lint(&mutant);
        assert!(
            lints
                .iter()
                .any(|d| matches!(d.kind, DiagKind::DuplicateSource { op: 0, .. })),
            "{}: duplicate source not linted: {lints:?}",
            layout.name()
        );
        let diags = verify_encode_program(&layout, &mutant);
        assert!(
            diags
                .iter()
                .any(|d| matches!(d.kind, DiagKind::WrongSymbols { .. })),
            "{}: cancelled source not caught symbolically",
            layout.name()
        );
    }
}

#[test]
fn self_referencing_target_is_rejected() {
    for layout in layouts() {
        let prog = XorProgram::compile_encode(&layout);
        let target = prog.op_target(0) as u32;
        let mutant = mutate(&prog, |_, _, sources| sources[0] = target);
        let lints = lint(&mutant);
        assert!(
            lints
                .iter()
                .any(|d| matches!(d.kind, DiagKind::SelfReference { op: 0 })),
            "{}: self-reference not linted: {lints:?}",
            layout.name()
        );
    }
}

#[test]
fn diagonal_op_moved_before_the_row_parity_it_reads_is_rejected() {
    // RDP's diagonal parity reads row parity. Move the first op that
    // reads an earlier op's target to the front of the program: it now
    // reads a row-parity block before any op has written it, so the
    // diagonal parity ends wrong.
    let layout = dcode_baselines::rdp::rdp(7).unwrap();
    let prog = XorProgram::compile_encode(&layout);
    let written = outputs(&prog);
    let mut ops = ops_of(&prog);
    let reader = ops
        .iter()
        .position(|(_, srcs)| srcs.iter().any(|&s| written.contains(&(s as usize))))
        .expect("RDP's diagonal parity reads row parity");
    let moved = ops.remove(reader);
    ops.insert(0, moved);
    let mutant = from_ops(prog.grid(), &ops);
    let diags = verify_encode_program(&layout, &mutant);
    assert!(
        has(&diags, |k| matches!(k, DiagKind::WrongSymbols { .. })),
        "moved op not caught: {diags:?}"
    );
}

#[test]
fn second_write_to_an_earlier_target_is_rejected() {
    for layout in layouts() {
        let prog = XorProgram::compile_encode(&layout);
        // Make op 1 write op 0's target: op 0's parity is overwritten
        // before anything reads it, and op 1's own parity is never written.
        let first = prog.op_target(0) as u32;
        let mutant = mutate(&prog, |targets, _, _| targets[1] = first);
        let diags = verify_encode_program(&layout, &mutant);
        assert!(
            has(&diags, |k| matches!(k, DiagKind::WrongSymbols { .. })),
            "{}: second write not caught: {diags:?}",
            layout.name()
        );
        let lints = lint(&mutant);
        assert!(
            has(&lints, |k| matches!(
                k,
                DiagKind::DeadOp {
                    op: 0,
                    shadowed_by: 1
                }
            )),
            "{}: shadowed write not linted: {lints:?}",
            layout.name()
        );
    }
}

#[test]
fn out_of_range_reference_is_rejected() {
    let layout = dcode_core::dcode::dcode(5).unwrap();
    let prog = XorProgram::compile_encode(&layout);
    let beyond = layout.grid().len() as u32 + 3;
    let mutant = mutate(&prog, |_, _, sources| sources[0] = beyond);
    let diags = lint(&mutant);
    assert!(
        has(&diags, |k| matches!(k, DiagKind::OutOfRange { op: 0, .. })),
        "out-of-range source not caught: {diags:?}"
    );
    // Equivalence aborts on the same defect instead of panicking.
    let diags = verify_encode_program(&layout, &mutant);
    assert!(has(&diags, |k| matches!(k, DiagKind::OutOfRange { .. })));
}

#[test]
fn corrupted_recovery_program_is_rejected() {
    let layout = dcode_core::dcode::dcode(7).unwrap();
    let plan = plan_column_recovery(&layout, &[1, 4]).unwrap();
    let prog = XorProgram::compile_plan(layout.grid(), &plan);
    let erased: BTreeSet<Cell> = layout
        .grid()
        .column(1)
        .chain(layout.grid().column(4))
        .collect();
    assert!(verify_plan_program(&layout, &prog, &erased).is_empty());

    // Drop the final op: its target stays zeroed, so the plan no longer
    // restores the stripe.
    let mut ops = ops_of(&prog);
    ops.pop();
    let mutant = from_ops(prog.grid(), &ops);
    let diags = verify_plan_program(&layout, &mutant, &erased);
    assert!(
        has(&diags, |k| matches!(k, DiagKind::WrongSymbols { .. })),
        "dropped recovery op not caught: {diags:?}"
    );
}

#[test]
fn dead_op_is_flagged() {
    let layout = dcode_core::dcode::dcode(5).unwrap();
    let prog = XorProgram::compile_encode(&layout);
    // Append a copy of the final op: the original op's value is
    // recomputed before anything reads it, so one of the two writes is
    // dead.
    let last = ops_of(&prog).pop().unwrap();
    let diags = lint(&append(&prog, &[last]));
    assert!(
        has(&diags, |k| matches!(k, DiagKind::DeadOp { .. })),
        "dead op not flagged: {diags:?}"
    );
}

/// The known-good base of the peephole and claim mutations: D-Code
/// p=7's compiled encode (14 ops).
fn base() -> (CodeLayout, XorProgram) {
    let layout = dcode(7).unwrap();
    let program = XorProgram::compile_encode(&layout);
    (layout, program)
}

#[test]
fn clean_baseline() {
    let (_, program) = base();
    assert!(structural(&program, &outputs(&program)).is_empty());
}

#[test]
fn mutation_redundant_op_is_flagged() {
    // Append an exact clone of op 0: the checker must see both the
    // recomputation (DuplicateExpression) and the shadowed first write
    // (DeadOp).
    let (_, program) = base();
    let op0 = ops_of(&program).swap_remove(0);
    let diags = structural(&append(&program, &[op0]), &outputs(&program));
    assert!(
        has(&diags, |k| matches!(
            k,
            DiagKind::DuplicateExpression { earlier_op: 0, .. }
        )),
        "{diags:?}"
    );
    assert!(
        has(&diags, |k| matches!(k, DiagKind::DeadOp { op: 0, .. })),
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
    let mut ops = ops_of(&program);
    let first = ops[0].1[0];
    ops[0].1.push(first);
    let mutated = from_ops(program.grid(), &ops);
    let diags = structural(&mutated, &outputs(&program));
    assert!(
        has(&diags, |k| matches!(
            k,
            DiagKind::DuplicateSource { op: 0, .. }
        )),
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
fn mutation_dead_scratch_write_is_flagged() {
    // Append an op computing into a block nothing reads and no output
    // needs: a dead scratch write (UnreadResult).
    let (_, program) = base();
    let expected = outputs(&program);
    let scratch = (0..program.grid().len() as u32)
        .find(|b| !expected.contains(&(*b as usize)))
        .unwrap();
    let new_op = program.op_count();
    let mutated = append(&program, &[(scratch, vec![0, 1])]);
    let diags = structural(&mutated, &expected);
    assert!(
        has(&diags, |k| matches!(
            k,
            DiagKind::UnreadResult { op, .. } if *op == new_op
        )),
        "{diags:?}"
    );
}

#[test]
fn mutation_shadowed_scratch_write_is_flagged() {
    // Append two writes of different expressions to one non-parity block:
    // the block is a wanted output, but the first write is overwritten
    // before anything reads it (DeadOp).
    let (_, program) = base();
    let mut expected = outputs(&program);
    let free: Vec<u32> = (0..program.grid().len() as u32)
        .filter(|b| !expected.contains(&(*b as usize)))
        .take(5)
        .collect();
    let scratch = free[0];
    expected.insert(scratch as usize);
    let first = program.op_count();
    let mutated = append(
        &program,
        &[
            (scratch, vec![free[1], free[2]]),
            (scratch, vec![free[3], free[4]]),
        ],
    );
    let diags = structural(&mutated, &expected);
    assert!(
        has(&diags, |k| matches!(
            k,
            DiagKind::DeadOp { op, shadowed_by } if *op == first && *shadowed_by == first + 1
        )),
        "{diags:?}"
    );
}

#[test]
fn mutation_whole_stripe_gather_is_flagged() {
    // Flatten the schedule into one op gathering 300 blocks: the op's
    // working-set estimate must exceed the budget.
    let grid = Grid::new(18, 18);
    let mutated = from_ops(grid, &[(323, (0..300u32).collect())]);
    let diags = structural(&mutated, &BTreeSet::from([323]));
    assert!(
        has(&diags, |k| matches!(
            k,
            DiagKind::OversizedWorkingSet { op: 0, .. }
        )),
        "{diags:?}"
    );
}
