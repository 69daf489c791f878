//! The driver: one [`VerifyReport`] per layout.
//!
//! [`verify_layout`] checks MDS rank, compiles the layout's encode
//! program, every two-column recovery program and every single-column
//! minimum-read rebuild program once, and runs every pass over each:
//! lints, peephole, symbolic equivalence, and the cost and footprint
//! measurements that the paper's closed forms ([`crate::claims`]) are
//! checked against. The report renders as human-readable text
//! ([`fmt::Display`]) and as machine-readable JSON
//! ([`VerifyReport::to_json`]) for the CI artifact.

use crate::claims::{closed_forms, ClaimCheck, LoadBalance};
use crate::cost::{encode_xors_per_data_element, program_xor_cost};
use crate::diag::{DiagKind, Diagnostic, Severity};
use crate::equiv::{verify_encode_program, verify_plan_program};
use crate::footprint::{degraded_read_footprint, program_footprint, surviving_lf};
use crate::lint::lint;
use crate::peephole::peephole;
use dcode_codec::XorProgram;
use dcode_core::decoder::{plan_column_recovery, RecoveryPlan};
use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use dcode_core::mds::verify_mds;
use dcode_iosim::{lf_display, load_balancing_factor};
use dcode_recovery::optimal_rebuild;
use std::collections::BTreeSet;
use std::fmt;

/// Measurements of the compiled full-stripe encode program.
#[derive(Clone, Debug)]
pub struct EncodeAnalysis {
    /// Ops in the compiled program.
    pub ops: usize,
    /// XORs per data element (the paper's encoding complexity).
    pub xors_per_data_element: f64,
    /// Load-balancing factor of the parity *writes* (∞ for dedicated
    /// parity disks).
    pub write_lf: f64,
    /// Load-balancing factor of reads + writes combined.
    pub combined_lf: f64,
    /// Source-block gathers summed over all ops.
    pub total_work: usize,
}

/// Measurements over every compiled recovery program.
#[derive(Clone, Debug)]
pub struct RecoveryAnalysis {
    /// Two-column recovery programs checked (all `C(disks, 2)` pairs that
    /// planned).
    pub plans: usize,
    /// XORs per lost element, averaged over all pairs (the paper's
    /// decoding complexity), measured on the compiled programs.
    pub xors_per_lost_element: f64,
}

/// The paper's update-complexity metric.
#[derive(Clone, Debug)]
pub struct UpdateAnalysis {
    /// Average parity elements touched by a one-element update.
    pub avg: f64,
    /// Worst-case parity elements touched.
    pub max: usize,
}

/// Everything the verifier concluded about one layout.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Code display name.
    pub code: String,
    /// The construction prime.
    pub p: usize,
    /// Array width in disks.
    pub disks: usize,
    /// The compiled encode program's content fingerprint
    /// ([`XorProgram::fingerprint`]: FNV-1a over grid shape + flat
    /// arrays) — ties this report to the exact artifact it checked.
    pub program_fingerprint: u64,
    /// Encode-side measurements.
    pub encode: EncodeAnalysis,
    /// Recovery-side measurements.
    pub recovery: RecoveryAnalysis,
    /// Update-side measurements.
    pub update: UpdateAnalysis,
    /// Average read LF over surviving disks for a full-stripe degraded
    /// read, averaged over every single failed column.
    pub degraded_avg_lf: f64,
    /// Closed-form claims checked against the measurements (empty for
    /// layouts outside the registry).
    pub claims: Vec<ClaimCheck>,
    /// Every finding from every pass over every program, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// No finding and every claim held — the bar `dcode verify` enforces.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.claims.iter().all(|c| c.pass)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Render as a single JSON object (hand-rolled: the workspace vendors
    /// no JSON library). Infinite load factors serialize as `"inf"`.
    pub fn to_json(&self) -> String {
        let claims: Vec<String> = self
            .claims
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": \"{}\", \"formula\": \"{}\", \"expected\": {}, \"actual\": {}, \"pass\": {}}}",
                    esc(&c.name),
                    esc(&c.formula),
                    jf(c.expected),
                    jf(c.actual),
                    c.pass
                )
            })
            .collect();
        let diags: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| format!("\"{}\"", esc(&d.to_string())))
            .collect();
        format!(
            concat!(
                "{{\"code\": \"{code}\", \"p\": {p}, \"disks\": {disks}, ",
                "\"program_fingerprint\": \"{fp:#018x}\", ",
                "\"encode\": {{\"ops\": {ops}, ",
                "\"xors_per_data_element\": {exde}, \"write_lf\": {wlf}, ",
                "\"combined_lf\": {clf}, \"total_work\": {tw}}}, ",
                "\"recovery\": {{\"plans\": {plans}, ",
                "\"xors_per_lost_element\": {xle}}}, ",
                "\"update\": {{\"avg\": {uavg}, \"max\": {umax}}}, ",
                "\"degraded_avg_lf\": {dlf}, ",
                "\"claims\": [{claims}], \"diagnostics\": [{diags}], ",
                "\"clean\": {clean}}}"
            ),
            code = esc(&self.code),
            p = self.p,
            disks = self.disks,
            fp = self.program_fingerprint,
            ops = self.encode.ops,
            exde = jf(self.encode.xors_per_data_element),
            wlf = jf(self.encode.write_lf),
            clf = jf(self.encode.combined_lf),
            tw = self.encode.total_work,
            plans = self.recovery.plans,
            xle = jf(self.recovery.xors_per_lost_element),
            uavg = jf(self.update.avg),
            umax = self.update.max,
            dlf = jf(self.degraded_avg_lf),
            claims = claims.join(", "),
            diags = diags.join(", "),
            clean = self.is_clean(),
        )
    }
}

fn jf(v: f64) -> String {
    if v.is_infinite() {
        "\"inf\"".to_string()
    } else {
        format!("{v:.6}")
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} p={} ({} disks), encode program {:#018x}",
            self.code, self.p, self.disks, self.program_fingerprint
        )?;
        writeln!(
            f,
            "  encode:   {} ops, {:.4} XORs/element, write LF {:.2}, combined LF {:.2}",
            self.encode.ops,
            self.encode.xors_per_data_element,
            lf_display(self.encode.write_lf),
            lf_display(self.encode.combined_lf),
        )?;
        writeln!(
            f,
            "  recovery: {} two-column plans, {:.4} XORs/lost element; {} single-column rebuild plans",
            self.recovery.plans, self.recovery.xors_per_lost_element, self.disks,
        )?;
        writeln!(
            f,
            "  update:   {:.4} avg / {} max parity touches; degraded-read LF {:.2} (surviving disks)",
            self.update.avg,
            self.update.max,
            lf_display(self.degraded_avg_lf),
        )?;
        for c in &self.claims {
            writeln!(f, "  claim     {c}")?;
        }
        for d in &self.diagnostics {
            writeln!(f, "  finding   {d}")?;
        }
        if self.is_clean() {
            f.write_str("  verdict:  verified")
        } else {
            write!(
                f,
                "  verdict:  NOT VERIFIED ({} finding(s), {} error(s), {} claim miss(es))",
                self.diagnostics.len(),
                self.error_count(),
                self.claims.iter().filter(|c| !c.pass).count()
            )
        }
    }
}

/// Every per-program pass: lints, peephole (`outputs` are the blocks the
/// program exists to write), then the supplied equivalence proof.
fn check_program(
    program: &XorProgram,
    outputs: &BTreeSet<usize>,
    equivalence: Vec<Diagnostic>,
    out: &mut Vec<Diagnostic>,
) {
    out.extend(lint(program));
    out.extend(peephole(program, outputs));
    out.extend(equivalence);
}

/// Verify one layout end to end:
///
/// 1. **MDS rank** — every 1- and 2-disk erasure is solvable over GF(2)
///    ([`dcode_core::mds::verify_mds`]);
/// 2. **encode program** — the compiled encode is lint- and
///    peephole-clean and symbolically equal to the layout's generator
///    matrix;
/// 3. **recovery programs** — for every 2-column erasure, the compiled
///    plan passes the same checks and symbolically restores the stripe;
/// 4. **rebuild programs** — for every single column, the program
///    compiled from the minimum-read choice of equations
///    ([`optimal_rebuild`]) does too;
/// 5. **claims** — the op counts, footprints and update closure measured
///    along the way against the paper's closed forms.
///
/// A clean report is a proof (for every payload and block size) that the
/// codec's compiled hot paths are correct, and a measurement that they
/// cost what the paper promises. A many-stripe batch replays the same
/// proved program once per stripe (`dcode_codec::bulk`), so there is no
/// batch-level artifact to verify.
pub fn verify_layout(layout: &CodeLayout) -> VerifyReport {
    let grid = layout.grid();
    let disks = layout.disks();
    let mut diagnostics = Vec::new();

    if let Err(v) = verify_mds(layout) {
        diagnostics.push(Diagnostic::error(DiagKind::Unrecoverable {
            failed: v.failed,
            deficiency: v.deficiency,
        }));
    }

    let encode_prog = XorProgram::compile_encode(layout);
    let parities: BTreeSet<usize> = layout.parity_cells().map(|c| grid.index(c)).collect();
    check_program(
        &encode_prog,
        &parities,
        verify_encode_program(layout, &encode_prog),
        &mut diagnostics,
    );
    let fp = program_footprint(grid, &encode_prog);
    let encode = EncodeAnalysis {
        ops: encode_prog.op_count(),
        xors_per_data_element: encode_xors_per_data_element(layout, &encode_prog),
        write_lf: load_balancing_factor(&fp.writes),
        combined_lf: load_balancing_factor(&fp.combined()),
        total_work: encode_prog.source_count(),
    };

    // One recovery plan: its compiled program restores the erased cells.
    // Returns the program's XOR count.
    let check_plan = |plan: &RecoveryPlan, diagnostics: &mut Vec<Diagnostic>| {
        let program = XorProgram::compile_plan(grid, plan);
        let erased: BTreeSet<Cell> = plan.erased.iter().copied().collect();
        let outputs: BTreeSet<usize> = erased.iter().map(|&c| grid.index(c)).collect();
        let equivalence = verify_plan_program(layout, &program, &erased);
        check_program(&program, &outputs, equivalence, diagnostics);
        program_xor_cost(&program)
    };

    let mut plans = 0usize;
    let mut total_xors = 0usize;
    let mut total_lost = 0usize;
    for c1 in 0..disks {
        for c2 in c1 + 1..disks {
            match plan_column_recovery(layout, &[c1, c2]) {
                Ok(plan) => {
                    total_xors += check_plan(&plan, &mut diagnostics);
                    total_lost += plan.erased.len();
                    plans += 1;
                }
                Err(e) => diagnostics.push(Diagnostic::error(DiagKind::PlanFailed {
                    failed: vec![c1, c2],
                    reason: e.to_string(),
                })),
            }
        }
    }
    for col in 0..disks {
        check_plan(
            &optimal_rebuild(layout, col).recovery_plan(layout),
            &mut diagnostics,
        );
    }
    let recovery = RecoveryAnalysis {
        plans,
        xors_per_lost_element: total_xors as f64 / total_lost.max(1) as f64,
    };

    let (avg, max) = dcode_core::metrics::update_complexity(layout);
    let update = UpdateAnalysis { avg, max };

    // Degraded read: average surviving-disk read LF over every single
    // failed column.
    let degraded_avg_lf = (0..disks)
        .map(|failed| surviving_lf(&degraded_read_footprint(layout, failed).reads, failed))
        .sum::<f64>()
        / disks as f64;

    VerifyReport {
        code: layout.name().to_string(),
        p: layout.prime(),
        disks,
        program_fingerprint: encode_prog.fingerprint(),
        claims: claims(layout, &encode, &recovery, &update),
        encode,
        recovery,
        update,
        degraded_avg_lf,
        diagnostics,
    }
}

/// The paper's closed forms against the measurements (empty for layouts
/// outside the registry).
fn claims(
    layout: &CodeLayout,
    encode: &EncodeAnalysis,
    recovery: &RecoveryAnalysis,
    update: &UpdateAnalysis,
) -> Vec<ClaimCheck> {
    let Some(forms) = closed_forms(layout.name(), layout.prime()) else {
        return Vec::new();
    };
    let mut claims = vec![
        ClaimCheck::check(
            "encode XORs per data element",
            forms.encode_formula,
            forms.encode_per_element,
            encode.xors_per_data_element,
        ),
        ClaimCheck::check(
            "parity dependency depth",
            "levels",
            forms.dependency_depth as f64,
            layout.dependency_levels().len() as f64,
        ),
    ];
    match forms.balance {
        LoadBalance::BalancedCombined => {
            claims.push(ClaimCheck::check(
                "encode write LF",
                "1",
                1.0,
                encode.write_lf,
            ));
            claims.push(ClaimCheck::check(
                "encode combined LF",
                "1",
                1.0,
                encode.combined_lf,
            ));
        }
        LoadBalance::BalancedWrites => {
            claims.push(ClaimCheck::check(
                "encode write LF",
                "1",
                1.0,
                encode.write_lf,
            ));
        }
        LoadBalance::DedicatedParity => {
            claims.push(ClaimCheck::check(
                "encode write LF",
                "inf (dedicated parity disks)",
                f64::INFINITY,
                encode.write_lf,
            ));
        }
    }
    if let Some(expected) = forms.decode_per_lost {
        claims.push(ClaimCheck::check(
            "decode XORs per lost element",
            forms.decode_formula,
            expected,
            recovery.xors_per_lost_element,
        ));
    }
    claims.push(ClaimCheck::check(
        "update parity touches (avg)",
        forms.update_formula,
        forms.update_avg,
        update.avg,
    ));
    claims.push(ClaimCheck::check(
        "update parity touches (max)",
        "max",
        forms.update_max as f64,
        update.max as f64,
    ));
    claims
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_core::equation::EquationKind;
    use dcode_core::layout::LayoutBuilder;

    #[test]
    fn dcode_headline_numbers_at_p7() {
        let report = verify_layout(&dcode_core::dcode::dcode(7).unwrap());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.encode.ops, 14);
        assert_eq!(report.recovery.plans, 21);
        assert!((report.encode.xors_per_data_element - 1.6).abs() < 1e-9);
        assert!((report.encode.write_lf - 1.0).abs() < 1e-9);
        assert!((report.encode.combined_lf - 1.0).abs() < 1e-9);
        assert!((report.recovery.xors_per_lost_element - 4.0).abs() < 1e-9);
        assert!(report.to_string().ends_with("verdict:  verified"));
    }

    #[test]
    fn fingerprint_is_stable_and_program_dependent() {
        let d7 = verify_layout(&dcode_core::dcode::dcode(7).unwrap());
        let d7b = verify_layout(&dcode_core::dcode::dcode(7).unwrap());
        let d11 = verify_layout(&dcode_core::dcode::dcode(11).unwrap());
        assert_eq!(d7.program_fingerprint, d7b.program_fingerprint);
        assert_ne!(d7.program_fingerprint, d11.program_fingerprint);
    }

    #[test]
    fn json_is_structurally_sound() {
        let report = verify_layout(&dcode_baselines::rdp::rdp(7).unwrap());
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        // RDP has dedicated parity: the write LF serializes as "inf".
        assert!(json.contains("\"write_lf\": \"inf\""));
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"program_fingerprint\": \"0x"));
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
        assert!(report.claims.is_empty());
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
