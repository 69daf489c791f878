//! The paper's headline quantitative claims, asserted as integration tests
//! over scaled-down versions of the Figure 4–7 pipelines (full size:
//! `cargo run --release -p dcode-bench -- fig4`, and so on to `fig7`). These are the
//! reproduction's acceptance tests: if a code change breaks the shape of a
//! result, it fails here before anyone re-reads the figures.

use dcode::baselines::registry::{build, CodeId};
use dcode::disksim::experiment::{degraded_read_speed, normal_read_speed, ExperimentParams};
use dcode::iosim::sim::run_workload;
use dcode::iosim::workload::{generate, WorkloadKind, WorkloadParams};
use dcode::recovery::measure_savings;

fn quick_disk() -> ExperimentParams {
    ExperimentParams {
        normal_trials: 400,
        degraded_trials_per_case: 80,
        ..Default::default()
    }
}

fn small_load() -> WorkloadParams {
    WorkloadParams {
        n_ops: 500,
        ..Default::default()
    }
}

/// Figure 4(a): under read-only workloads RDP and H-Code leave parity disks
/// idle (LF = ∞) while HDP, X-Code and D-Code stay near 1.
#[test]
fn fig4a_read_only_balance() {
    let p = 11;
    for (id, expect_inf) in [
        (CodeId::Rdp, true),
        (CodeId::HCode, true),
        (CodeId::Hdp, false),
        (CodeId::XCode, false),
        (CodeId::DCode, false),
    ] {
        let layout = build(id, p).unwrap();
        let ops = generate(
            WorkloadKind::ReadOnly,
            layout.data_len(),
            small_load(),
            2015,
        );
        let lf = run_workload(&layout, &ops).lf();
        if expect_inf {
            assert!(lf.is_infinite(), "{} LF={lf}", id.name());
        } else {
            assert!(lf < 1.2, "{} LF={lf}", id.name());
        }
    }
}

/// Figure 4(b,c): D-Code stays well balanced under write-bearing workloads
/// while RDP degrades badly.
#[test]
fn fig4bc_mixed_balance() {
    let p = 13;
    for kind in [WorkloadKind::ReadIntensive, WorkloadKind::Mixed] {
        let d = build(CodeId::DCode, p).unwrap();
        let ops = generate(kind, d.data_len(), small_load(), 99);
        let lf_d = run_workload(&d, &ops).lf();
        assert!(lf_d < 1.3, "D-Code {kind:?} LF={lf_d}");

        let r = build(CodeId::Rdp, p).unwrap();
        let ops = generate(kind, r.data_len(), small_load(), 99);
        let lf_r = run_workload(&r, &ops).lf();
        assert!(lf_r > 2.0, "RDP {kind:?} LF={lf_r}");
    }
}

/// Figure 5: under the mixed workload, the well-balanced-but-diagonal codes
/// (X-Code, HDP) cost ≥10% more I/O than D-Code at p = 13, while the
/// horizontal codes stay within ±8% of D-Code.
#[test]
fn fig5_io_cost_shape() {
    let p = 13;
    let cost = |id: CodeId| {
        let layout = build(id, p).unwrap();
        let ops = generate(WorkloadKind::Mixed, layout.data_len(), small_load(), 7);
        run_workload(&layout, &ops).cost() as f64
    };
    let d = cost(CodeId::DCode);
    assert!(
        cost(CodeId::XCode) > 1.10 * d,
        "X-Code should cost >10% more"
    );
    assert!(cost(CodeId::Hdp) > 1.10 * d, "HDP should cost >10% more");
    assert!(
        (cost(CodeId::Rdp) - d).abs() < 0.08 * d,
        "RDP should be close"
    );
    assert!(
        (cost(CodeId::HCode) - d).abs() < 0.08 * d,
        "H-Code should be close"
    );
}

/// Figure 6: normal-mode read speed — D-Code equals X-Code (identical data
/// layout) and beats RDP/H-Code, most strongly at small p.
#[test]
fn fig6_normal_read_shape() {
    let params = quick_disk();
    for p in [5usize, 7] {
        let speed = |id: CodeId| normal_read_speed(&build(id, p).unwrap(), params, 11).mb_s;
        let d = speed(CodeId::DCode);
        let x = speed(CodeId::XCode);
        assert!(
            (d - x).abs() < 1e-9,
            "D-Code and X-Code share the data layout"
        );
        assert!(d > 1.10 * speed(CodeId::Rdp), "p={p}: ≥10% over RDP");
        assert!(d > 1.05 * speed(CodeId::HCode), "p={p}: ≥5% over H-Code");
    }
}

/// Figure 7: degraded-mode read speed — D-Code beats X-Code by ≥8% and HDP
/// by ≥15% (the paper reports 11.6–26.0% over X-Code and up to 62% over
/// HDP).
#[test]
fn fig7_degraded_read_shape() {
    let params = quick_disk();
    for p in [7usize, 11] {
        let speed = |id: CodeId| degraded_read_speed(&build(id, p).unwrap(), params, 23).mb_s;
        let d = speed(CodeId::DCode);
        assert!(d > 1.08 * speed(CodeId::XCode), "p={p}: over X-Code");
        assert!(d > 1.15 * speed(CodeId::Hdp), "p={p}: over HDP");
    }
}

/// Section III-D: the hybrid single-disk recovery saves about 25% of reads
/// for both X-Code and D-Code (Theorem 1 makes them identical).
#[test]
fn recovery_savings_about_25_percent() {
    for p in [7usize, 11, 13] {
        let d = measure_savings(&build(CodeId::DCode, p).unwrap());
        let x = measure_savings(&build(CodeId::XCode, p).unwrap());
        assert!((d.reduction_pct() - x.reduction_pct()).abs() < 1e-9);
        assert!(
            d.reduction_pct() > 20.0 && d.reduction_pct() < 32.0,
            "p={p}: {:.1}%",
            d.reduction_pct()
        );
    }
}
