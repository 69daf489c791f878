//! The analyzer driver: one [`AnalysisReport`] per layout.
//!
//! [`analyze_layout`] compiles the layout's encode program and every
//! 2-column recovery program, runs the cost / footprint / critical-path /
//! peephole passes over them, and checks the measurements against the
//! paper's closed forms ([`crate::claims`]). The report renders both as
//! human-readable text ([`fmt::Display`]) and as machine-readable JSON
//! ([`AnalysisReport::to_json`]) for the CI artifact.

use crate::claims::{closed_forms, ClaimCheck, LoadBalance};
use crate::cost::{encode_xors_per_data_element, program_xor_cost, update_parity_touches};
use crate::critpath::{critical_path, CritPath};
use crate::footprint::{degraded_read_footprint, encode_footprint, surviving_lf};
use crate::peephole::analyze_program;
use dcode_codec::{OptConfig, XorProgram};
use dcode_core::decoder::plan_column_recovery;
use dcode_core::layout::CodeLayout;
use dcode_core::Fnv1a;
use dcode_iosim::{lf_display, load_balancing_factor};
use dcode_verify::Diagnostic;
use std::collections::BTreeSet;
use std::fmt;

/// Static analysis of the compiled full-stripe encode program.
#[derive(Clone, Debug)]
pub struct EncodeAnalysis {
    /// Ops in the compiled program.
    pub ops: usize,
    /// Dependency levels.
    pub levels: usize,
    /// XORs per data element (the paper's encoding complexity).
    pub xors_per_data_element: f64,
    /// Load-balancing factor of the parity *writes* (∞ for dedicated
    /// parity disks).
    pub write_lf: f64,
    /// Load-balancing factor of reads + writes combined.
    pub combined_lf: f64,
    /// Level-structure summary and parallel speedup bound.
    pub crit: CritPath,
}

/// Static analysis aggregated over every 2-column recovery program.
#[derive(Clone, Debug)]
pub struct RecoveryAnalysis {
    /// Number of 2-column erasure pairs analyzed (`disks choose 2`).
    pub plans: usize,
    /// XORs per lost element, averaged over all pairs (the paper's
    /// decoding complexity), measured on the compiled programs.
    pub xors_per_lost_element: f64,
    /// Deepest level structure any recovery program needed.
    pub max_levels: usize,
}

/// The paper's update-complexity metric.
#[derive(Clone, Debug)]
pub struct UpdateAnalysis {
    /// Average parity elements touched by a one-element update.
    pub avg: f64,
    /// Worst-case parity elements touched.
    pub max: usize,
}

/// Everything the analyzer derived for one layout.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Code display name.
    pub code: String,
    /// The construction prime.
    pub p: usize,
    /// Array width in disks.
    pub disks: usize,
    /// The compiled encode program's content fingerprint
    /// ([`XorProgram::fingerprint`]: FNV-1a over grid shape + flat
    /// arrays) — ties this report to the exact artifact it analyzed.
    pub program_fingerprint: u64,
    /// Order-sensitive fingerprint of the optimizer pipeline in effect
    /// (the default [`OptConfig`]) — the same value the schedule cache
    /// keys its compiled artifacts by, so a pipeline change visibly
    /// invalidates both the cache and this report.
    pub pipeline_fingerprint: u64,
    /// The pipeline's passes in run order: (name, per-pass fingerprint).
    /// A pass's fingerprint covers its name *and* implementation
    /// version, so a logic change shows up even when the name does not.
    pub pipeline: Vec<(String, u64)>,
    /// Fingerprint of the whole report's identity: FNV-1a over the
    /// program fingerprint and the pipeline fingerprint. Changing either
    /// the compiled artifact or the optimizer pipeline changes this.
    pub report_fingerprint: u64,
    /// Encode-side analysis.
    pub encode: EncodeAnalysis,
    /// Recovery-side analysis.
    pub recovery: RecoveryAnalysis,
    /// Update-side analysis.
    pub update: UpdateAnalysis,
    /// Average read LF over surviving disks for a full-stripe degraded
    /// read, averaged over every single failed column.
    pub degraded_avg_lf: f64,
    /// Closed-form claims checked against the measurements (empty for
    /// layouts outside the registry).
    pub claims: Vec<ClaimCheck>,
    /// Lint findings over the encode program and every recovery program.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// `true` when no lint fired and every claim held.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.claims.iter().all(|c| c.pass)
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
        let pipeline: Vec<String> = self
            .pipeline
            .iter()
            .map(|(name, fp)| {
                format!(
                    "{{\"name\": \"{}\", \"fingerprint\": \"{fp:#018x}\"}}",
                    esc(name)
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"code\": \"{code}\", \"p\": {p}, \"disks\": {disks}, ",
                "\"program_fingerprint\": \"{fp:#018x}\", ",
                "\"pipeline_fingerprint\": \"{plfp:#018x}\", ",
                "\"report_fingerprint\": \"{rfp:#018x}\", ",
                "\"pipeline\": [{pipeline}], ",
                "\"encode\": {{\"ops\": {ops}, \"levels\": {levels}, ",
                "\"xors_per_data_element\": {exde}, \"write_lf\": {wlf}, ",
                "\"combined_lf\": {clf}, \"total_work\": {tw}, ",
                "\"critical_path_work\": {cw}, \"max_width\": {mw}, ",
                "\"speedup_bound\": {sb}}}, ",
                "\"recovery\": {{\"plans\": {plans}, ",
                "\"xors_per_lost_element\": {xle}, \"max_levels\": {ml}}}, ",
                "\"update\": {{\"avg\": {uavg}, \"max\": {umax}}}, ",
                "\"degraded_avg_lf\": {dlf}, ",
                "\"claims\": [{claims}], \"diagnostics\": [{diags}], ",
                "\"clean\": {clean}}}"
            ),
            code = esc(&self.code),
            p = self.p,
            disks = self.disks,
            fp = self.program_fingerprint,
            plfp = self.pipeline_fingerprint,
            rfp = self.report_fingerprint,
            pipeline = pipeline.join(", "),
            ops = self.encode.ops,
            levels = self.encode.levels,
            exde = jf(self.encode.xors_per_data_element),
            wlf = jf(self.encode.write_lf),
            clf = jf(self.encode.combined_lf),
            tw = self.encode.crit.total_work,
            cw = self.encode.crit.critical_path_work,
            mw = self.encode.crit.max_width,
            sb = jf(self.encode.crit.speedup_bound),
            plans = self.recovery.plans,
            xle = jf(self.recovery.xors_per_lost_element),
            ml = self.recovery.max_levels,
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

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} p={} ({} disks), encode program {:#018x}, report {:#018x}",
            self.code, self.p, self.disks, self.program_fingerprint, self.report_fingerprint
        )?;
        writeln!(
            f,
            "  pipeline: {} ({:#018x})",
            if self.pipeline.is_empty() {
                "(no passes)".to_string()
            } else {
                self.pipeline
                    .iter()
                    .map(|(name, _)| name.as_str())
                    .collect::<Vec<_>>()
                    .join(" -> ")
            },
            self.pipeline_fingerprint,
        )?;
        writeln!(
            f,
            "  encode:   {} ops in {} level(s), {:.4} XORs/element, write LF {:.2}, combined LF {:.2}",
            self.encode.ops,
            self.encode.levels,
            self.encode.xors_per_data_element,
            lf_display(self.encode.write_lf),
            lf_display(self.encode.combined_lf),
        )?;
        writeln!(
            f,
            "  parallel: total work {}, critical path {}, width {}, speedup bound x{:.2}",
            self.encode.crit.total_work,
            self.encode.crit.critical_path_work,
            self.encode.crit.max_width,
            self.encode.crit.speedup_bound,
        )?;
        writeln!(
            f,
            "  recovery: {} two-column plans, {:.4} XORs/lost element, deepest {} level(s)",
            self.recovery.plans, self.recovery.xors_per_lost_element, self.recovery.max_levels,
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
            writeln!(f, "  lint      {d}")?;
        }
        write!(
            f,
            "  verdict:  {}",
            if self.is_clean() {
                "clean"
            } else {
                "NOT CLEAN"
            }
        )
    }
}

/// Run every static pass over `layout` and check the paper's claims.
///
/// # Panics
/// Panics if some 2-column erasure is unrecoverable — i.e. only call this
/// on layouts that pass MDS verification (every registry code does; run
/// `dcode-verify` first on custom specs).
pub fn analyze_layout(layout: &CodeLayout) -> AnalysisReport {
    let grid = layout.grid();
    let disks = layout.disks();
    let encode_prog = XorProgram::compile_encode(layout);

    // The optimizer pipeline this report is tied to: the default config,
    // the same one the schedule cache runs over everything it compiles.
    let pipeline_cfg = OptConfig::default();
    let pipeline_fingerprint = pipeline_cfg.fingerprint();
    let pipeline: Vec<(String, u64)> = pipeline_cfg
        .passes()
        .iter()
        .map(|pass| (pass.name().to_string(), pass.fingerprint()))
        .collect();
    let report_fingerprint = {
        let mut h = Fnv1a::new();
        h.word(encode_prog.fingerprint());
        h.word(pipeline_fingerprint);
        h.finish()
    };

    // Encode pass.
    let fp = encode_footprint(layout, &encode_prog);
    let write_lf = load_balancing_factor(&fp.writes);
    let combined_lf = load_balancing_factor(&fp.combined());
    let crit = critical_path(&encode_prog);
    let encode = EncodeAnalysis {
        ops: encode_prog.op_count(),
        levels: encode_prog.level_count(),
        xors_per_data_element: encode_xors_per_data_element(layout, &encode_prog),
        write_lf,
        combined_lf,
        crit,
    };
    let encode_outputs: BTreeSet<usize> = (0..encode_prog.op_count())
        .map(|op| encode_prog.op_target(op))
        .collect();
    let mut diagnostics = analyze_program(&encode_prog, &encode_outputs);

    // Recovery pass: every 2-column erasure.
    let mut plans = 0usize;
    let mut total_xors = 0usize;
    let mut total_lost = 0usize;
    let mut max_levels = 0usize;
    for c1 in 0..disks {
        for c2 in c1 + 1..disks {
            let plan = plan_column_recovery(layout, &[c1, c2])
                .expect("analyze_layout assumes a verified-MDS layout");
            let prog = XorProgram::compile_plan(grid, &plan);
            plans += 1;
            total_xors += program_xor_cost(&prog);
            total_lost += plan.erased.len();
            max_levels = max_levels.max(prog.level_count());
            let outputs: BTreeSet<usize> = plan.erased.iter().map(|&c| grid.index(c)).collect();
            diagnostics.extend(analyze_program(&prog, &outputs));
        }
    }
    let recovery = RecoveryAnalysis {
        plans,
        xors_per_lost_element: total_xors as f64 / total_lost as f64,
        max_levels,
    };

    // Update pass.
    let (avg, max) = update_parity_touches(layout);
    let update = UpdateAnalysis { avg, max };

    // Degraded-read pass: average surviving-disk read LF over every
    // single failed column.
    let mut lf_sum = 0.0;
    for failed in 0..disks {
        let dfp = degraded_read_footprint(layout, failed);
        lf_sum += surviving_lf(&dfp.reads, failed);
    }
    let degraded_avg_lf = lf_sum / disks as f64;

    // Claim table: measurements against the paper's closed forms.
    let mut claims = Vec::new();
    if let Some(forms) = closed_forms(layout.name(), layout.prime()) {
        claims.push(ClaimCheck::check(
            "encode XORs per data element",
            forms.encode_formula,
            forms.encode_per_element,
            encode.xors_per_data_element,
        ));
        claims.push(ClaimCheck::check(
            "encode dependency levels",
            "levels",
            forms.encode_levels as f64,
            encode.levels as f64,
        ));
        match forms.balance {
            LoadBalance::BalancedCombined => {
                claims.push(ClaimCheck::check("encode write LF", "1", 1.0, write_lf));
                claims.push(ClaimCheck::check(
                    "encode combined LF",
                    "1",
                    1.0,
                    combined_lf,
                ));
            }
            LoadBalance::BalancedWrites => {
                claims.push(ClaimCheck::check("encode write LF", "1", 1.0, write_lf));
            }
            LoadBalance::DedicatedParity => {
                claims.push(ClaimCheck::check(
                    "encode write LF",
                    "inf (dedicated parity disks)",
                    f64::INFINITY,
                    write_lf,
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
    }

    AnalysisReport {
        code: layout.name().to_string(),
        p: layout.prime(),
        disks,
        program_fingerprint: encode_prog.fingerprint(),
        pipeline_fingerprint,
        pipeline,
        report_fingerprint,
        encode,
        recovery,
        update,
        degraded_avg_lf,
        claims,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_baselines::registry::all_codes;

    #[test]
    fn every_registry_code_is_clean_at_every_sweep_prime() {
        // The acceptance bar: all 7 codes x p in {5,7,11,13,17} pass every
        // claim with zero lint findings.
        for p in [5usize, 7, 11, 13, 17] {
            for layout in all_codes(p) {
                let report = analyze_layout(&layout);
                assert!(report.is_clean(), "{} p={p}:\n{report}", layout.name());
                assert!(!report.claims.is_empty(), "{} p={p}", layout.name());
            }
        }
    }

    #[test]
    fn dcode_headline_numbers_at_p7() {
        let report = analyze_layout(&dcode_core::dcode::dcode(7).unwrap());
        assert!((report.encode.xors_per_data_element - 1.6).abs() < 1e-9);
        assert!((report.encode.write_lf - 1.0).abs() < 1e-9);
        assert!((report.encode.combined_lf - 1.0).abs() < 1e-9);
        assert!((report.recovery.xors_per_lost_element - 4.0).abs() < 1e-9);
        assert_eq!(report.encode.levels, 1);
    }

    #[test]
    fn fingerprint_is_stable_and_program_dependent() {
        let d7 = analyze_layout(&dcode_core::dcode::dcode(7).unwrap());
        let d7b = analyze_layout(&dcode_core::dcode::dcode(7).unwrap());
        let d11 = analyze_layout(&dcode_core::dcode::dcode(11).unwrap());
        assert_eq!(d7.program_fingerprint, d7b.program_fingerprint);
        assert_ne!(d7.program_fingerprint, d11.program_fingerprint);
        assert_eq!(d7.report_fingerprint, d7b.report_fingerprint);
        assert_ne!(d7.report_fingerprint, d11.report_fingerprint);
    }

    #[test]
    fn report_carries_the_default_pipeline_and_keys_on_it() {
        use dcode_codec::{OptConfig, OptPass};
        let report = analyze_layout(&dcode_core::dcode::dcode(7).unwrap());
        assert_eq!(
            report.pipeline_fingerprint,
            OptConfig::default().fingerprint()
        );
        let names: Vec<&str> = report.pipeline.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            OptPass::ALL.map(OptPass::name).to_vec(),
            "report pipeline must mirror the default pass order"
        );
        for (pass, (_, fp)) in OptPass::ALL.iter().zip(&report.pipeline) {
            assert_eq!(pass.fingerprint(), *fp);
        }
        // The report fingerprint must move when either input moves.
        assert_ne!(report.report_fingerprint, report.program_fingerprint);
        assert_ne!(report.report_fingerprint, report.pipeline_fingerprint);
    }

    #[test]
    fn json_is_structurally_sound() {
        let report = analyze_layout(&dcode_baselines::rdp::rdp(7).unwrap());
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
        assert!(json.contains("\"pipeline_fingerprint\": \"0x"));
        assert!(json.contains("\"report_fingerprint\": \"0x"));
        assert!(json.contains("\"name\": \"dead-op-elim\""));
    }
}
