//! The all-passes driver: one call that verifies everything the codec
//! will ever compile for a layout.

use crate::diag::{DiagKind, Diagnostic, Severity};
use crate::equiv::{verify_encode_program, verify_plan_program};
use crate::lint::lint;
use crate::race::check_levels;
use dcode_codec::XorProgram;
use dcode_core::decoder::{plan_column_recovery, RecoveryPlan};
use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use dcode_core::mds::verify_mds;
use dcode_recovery::optimal_rebuild;
use std::collections::BTreeSet;
use std::fmt;

/// Everything the verifier concluded about one layout.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyReport {
    /// The code's display name.
    pub code: String,
    /// Its prime parameter.
    pub p: usize,
    /// Disks in the array.
    pub disks: usize,
    /// Ops in the compiled encode program.
    pub encode_ops: usize,
    /// Dependency levels in the compiled encode program.
    pub encode_levels: usize,
    /// Two-column recovery programs verified (all `C(disks, 2)` pairs).
    pub plans_verified: usize,
    /// Single-column minimum-read rebuild programs verified (one per
    /// disk) — what an array replays to rebuild one failed slot.
    pub rebuild_plans_verified: usize,
    /// Every finding from every pass, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// No findings at all — the bar the CI `verify` job enforces.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} p={} ({} disks): encode {} ops / {} levels, {} recovery plans, {} rebuild plans — ",
            self.code,
            self.p,
            self.disks,
            self.encode_ops,
            self.encode_levels,
            self.plans_verified,
            self.rebuild_plans_verified
        )?;
        if self.is_clean() {
            f.write_str("verified")
        } else {
            write!(
                f,
                "{} finding(s), {} error(s)",
                self.diagnostics.len(),
                self.error_count()
            )
        }
    }
}

/// Run a program through all three program-level passes, prefixing nothing:
/// race check, lints, then the supplied equivalence closure.
fn verify_program(
    program: &XorProgram,
    equivalence: impl FnOnce(&XorProgram) -> Vec<Diagnostic>,
    out: &mut Vec<Diagnostic>,
) {
    out.extend(check_levels(program));
    out.extend(lint(program));
    out.extend(equivalence(program));
}

/// Verify one layout end to end:
///
/// 1. **MDS rank** — every 1- and 2-disk erasure is solvable over GF(2)
///    ([`dcode_core::mds::verify_mds`]);
/// 2. **encode program** — the compiled encode is race-free, lint-clean,
///    and symbolically equal to the layout's generator matrix;
/// 3. **recovery programs** — for every 2-column erasure, the compiled
///    plan is race-free, lint-clean, and symbolically restores the stripe;
/// 4. **rebuild programs** — for every single column, the program
///    compiled from the minimum-read choice of equations
///    ([`optimal_rebuild`]) passes the same three checks.
///
/// A clean report is a proof (for every payload and block size) that the
/// codec's compiled hot paths are correct and their levels hazard-free.
/// A many-stripe batch replays the same proved program once per stripe
/// (`dcode_codec::bulk`), so there is no batch-level artifact to verify.
pub fn verify_layout(layout: &CodeLayout) -> VerifyReport {
    let mut diagnostics = Vec::new();

    if let Err(v) = verify_mds(layout) {
        diagnostics.push(Diagnostic::error(DiagKind::Unrecoverable {
            failed: v.failed,
            deficiency: v.deficiency,
        }));
    }

    let encode = XorProgram::compile_encode(layout);
    verify_program(
        &encode,
        |p| verify_encode_program(layout, p),
        &mut diagnostics,
    );

    // One recovery plan: its compiled program restores the erased cells.
    let grid = layout.grid();
    let prove_plan = |plan: &RecoveryPlan, diagnostics: &mut Vec<Diagnostic>| {
        let program = XorProgram::compile_plan(grid, plan);
        let erased: BTreeSet<Cell> = plan.erased.iter().copied().collect();
        verify_program(
            &program,
            |p| verify_plan_program(layout, p, &erased),
            diagnostics,
        );
    };

    let mut plans_verified = 0usize;
    for c1 in 0..layout.disks() {
        for c2 in c1 + 1..layout.disks() {
            match plan_column_recovery(layout, &[c1, c2]) {
                Ok(plan) => {
                    prove_plan(&plan, &mut diagnostics);
                    plans_verified += 1;
                }
                Err(e) => diagnostics.push(Diagnostic::error(DiagKind::PlanFailed {
                    failed: vec![c1, c2],
                    reason: e.to_string(),
                })),
            }
        }
    }
    for col in 0..layout.disks() {
        let plan = optimal_rebuild(layout, col).recovery_plan(layout);
        prove_plan(&plan, &mut diagnostics);
    }
    let rebuild_plans_verified = layout.disks();

    VerifyReport {
        code: layout.name().to_string(),
        p: layout.prime(),
        disks: layout.disks(),
        encode_ops: encode.op_count(),
        encode_levels: encode.level_count(),
        plans_verified,
        rebuild_plans_verified,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_core::equation::EquationKind;
    use dcode_core::layout::LayoutBuilder;

    #[test]
    fn dcode_report_is_clean() {
        let report = verify_layout(&dcode_core::dcode::dcode(7).unwrap());
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.plans_verified, 21);
        assert_eq!(report.encode_ops, 14);
        assert_eq!(report.rebuild_plans_verified, 7);
        assert!(report.to_string().ends_with("verified"));
    }

    #[test]
    fn raid5_toy_report_flags_unrecoverable_pairs() {
        let mut b = LayoutBuilder::new("raid5", 5, 2, 4);
        for r in 0..2 {
            b.equation(
                EquationKind::Row,
                Cell::new(r, 3),
                vec![Cell::new(r, 0), Cell::new(r, 1), Cell::new(r, 2)],
            );
        }
        let report = verify_layout(&b.build().unwrap());
        assert!(!report.is_clean());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d.kind, DiagKind::Unrecoverable { .. })));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d.kind, DiagKind::PlanFailed { .. })));
    }
}
