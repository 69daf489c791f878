//! Schedule lints: findings that don't (necessarily) change the computed
//! bytes but mark a program as malformed or wasteful.
//!
//! The passes here are purely structural — no symbol vectors — so they run
//! in `O(ops + sources)` and apply to hand-built programs as well as
//! compiler output. Anything the compilers emit today lints clean; the
//! mutation suite proves each lint fires on the corruption class it names.

use crate::diag::{DiagKind, Diagnostic};
use dcode_codec::XorProgram;
use std::collections::BTreeMap;

/// Run every lint over `program`.
pub fn lint(program: &XorProgram) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    lint_sources(program, &mut out);
    lint_dead_ops(program, &mut out);
    out
}

/// Per-op lints: out-of-range indices, self-references, duplicate
/// sources, empty ops.
fn lint_sources(program: &XorProgram, out: &mut Vec<Diagnostic>) {
    let n_blocks = program.grid().len();
    for op in 0..program.op_count() {
        let target = program.op_target(op);
        let sources = program.op_sources(op);
        for block in std::iter::once(target).chain(sources.iter().map(|&s| s as usize)) {
            if block >= n_blocks {
                out.push(Diagnostic::error(DiagKind::OutOfRange { op, block }));
            }
        }
        if sources.is_empty() {
            out.push(Diagnostic::warning(DiagKind::EmptyOp { op }));
        }
        if sources.iter().any(|&s| s as usize == target) {
            // The executor detaches the target before gathering, so this
            // panics at replay time — an error, not a style nit.
            out.push(Diagnostic::error(DiagKind::SelfReference { op }));
        }
        let mut multiplicity: BTreeMap<u32, usize> = BTreeMap::new();
        for &s in sources {
            *multiplicity.entry(s).or_insert(0) += 1;
        }
        for (block, count) in multiplicity {
            if count > 1 {
                out.push(Diagnostic::warning(DiagKind::DuplicateSource {
                    op,
                    block: block as usize,
                    multiplicity: count,
                }));
            }
        }
    }
}

/// Flag ops whose target is overwritten by a later op before any op reads
/// it — the earlier computation is dead.
fn lint_dead_ops(program: &XorProgram, out: &mut Vec<Diagnostic>) {
    // last_write[block] = (op, has the value been read since?)
    let mut last_write: BTreeMap<usize, (usize, bool)> = BTreeMap::new();
    for op in 0..program.op_count() {
        for &s in program.op_sources(op) {
            if let Some(entry) = last_write.get_mut(&(s as usize)) {
                entry.1 = true;
            }
        }
        let target = program.op_target(op);
        if let Some(&(prev_op, read)) = last_write.get(&target) {
            if !read {
                out.push(Diagnostic::warning(DiagKind::DeadOp {
                    op: prev_op,
                    shadowed_by: op,
                }));
            }
        }
        last_write.insert(target, (op, false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_baselines::registry::all_codes;
    use dcode_core::decoder::plan_column_recovery;

    #[test]
    fn compiled_programs_lint_clean() {
        for p in [5usize, 7, 11] {
            for layout in all_codes(p) {
                let prog = XorProgram::compile_encode(&layout);
                let diags = lint(&prog);
                assert!(diags.is_empty(), "{} p={p}: {:?}", layout.name(), diags);
                for c1 in 0..layout.disks() {
                    for c2 in c1 + 1..layout.disks() {
                        let plan = plan_column_recovery(&layout, &[c1, c2]).unwrap();
                        let prog = XorProgram::compile_plan(layout.grid(), &plan);
                        let diags = lint(&prog);
                        assert!(
                            diags.is_empty(),
                            "{} p={p} cols=({c1},{c2}): {diags:?}",
                            layout.name()
                        );
                    }
                }
            }
        }
    }
}
