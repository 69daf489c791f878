//! Extension studies beyond the paper: the same machinery, new questions.
//! Two of them are gates: `write_policy` and `double_failure_study` fail
//! when the I/O `ResilientArray` issues differs from the model's.

use crate::figures::{run_cells, trace};
use crate::Fmt::{Change, FiniteOr, Fixed, Plain, Sci, Times};
use crate::{change, col, mean, model_gate, Ctx, Sheet, LF_CSV, PRIMES};
use dcode_array::loadstudy::{lf, physical_loads, StripeSkew};
use dcode_array::{ResilientArray, RetryPolicy, RotationScheme};
use dcode_baselines::registry::{build, CodeId, ALL_CODES, EVALUATED_CODES};
use dcode_codec::{reconstruct_write_ios, Stripe, XorProgram};
use dcode_core::analysis::{adjacent_sharing_probability, sharing_stats};
use dcode_core::layout::CodeLayout;
use dcode_disksim::experiment::ExperimentParams;
use dcode_disksim::latency::{degraded_read_latency, normal_read_latency, LatencyStats};
use dcode_disksim::model::DiskModel;
use dcode_disksim::queue::simulate_load;
use dcode_disksim::rebuild::{average_rebuild, RebuildScheme};
use dcode_disksim::reliability::{estimate, ReliabilityParams};
use dcode_faults::{CountingBackend, MemBackend};
use dcode_iosim::access::{
    degraded_read_accesses, degraded_write_accesses, double_degraded_read_accesses,
    normal_read_accesses, write_accesses,
};
use dcode_iosim::sim::{run_workload, run_workload_degraded, run_workload_parallel};
use dcode_iosim::trace::{zipf_trace, ZipfTraceParams};
use dcode_iosim::workload::WorkloadKind;
use std::time::Instant;

/// Block size of the arrays the gates count I/O on.
const BLOCK: usize = 8;

/// An unrotated one-slot-per-column array over a counting backend with
/// `spares` extra slots, formatted and filled with data.
pub(crate) fn counting_array(
    layout: &CodeLayout,
    stripes: usize,
    spares: usize,
) -> ResilientArray<CountingBackend<MemBackend>> {
    let backend = CountingBackend::new(MemBackend::new(
        layout.disks() + spares,
        stripes * layout.rows(),
        BLOCK,
    ));
    let mut array = ResilientArray::format(
        layout.clone(),
        BLOCK,
        stripes,
        RotationScheme::None,
        backend,
        RetryPolicy::default(),
        1,
    );
    let fill = vec![0x5A; array.capacity_bytes()];
    array.write(0, &fill).expect("fill");
    array
}

/// Section II study: why RAID-5-style stripe rotation cannot substitute
/// for a balanced code.
///
/// The paper: "some global load balancing methods such as rotating the
/// mappings from logic disks to physical disks stripe by stripe may
/// alleviate the unbalanced I/O in some level, but they cannot balance the
/// I/O accesses on the same stripe … due to the fact that each stripe has
/// different access frequencies." This study measures the load-balancing
/// factor of RDP and D-Code, with and without rotation, as stripe
/// popularity skews from uniform to a single hot stripe.
pub fn rotation_study(ctx: &Ctx) -> Result<(), String> {
    let p = 11;
    let n_stripes = 44; // multiple of every disk count involved
    let skews = [
        ("uniform", StripeSkew::Uniform),
        ("zipf 1.0", StripeSkew::Zipf(1.0)),
        ("zipf 2.0", StripeSkew::Zipf(2.0)),
        ("one hot stripe", StripeSkew::SingleHot),
    ];
    let mut sheet = Sheet::new(vec![
        col("", Plain, "code", Plain),
        col("stripe popularity", Plain, "skew", Plain),
        col("no rotation", Fixed(2), "lf_unrotated", Fixed(4)),
        col("per-stripe rotation", Fixed(2), "lf_rotated", Fixed(4)),
    ]);
    for &code in &[CodeId::Rdp, CodeId::HCode, CodeId::DCode] {
        let layout = build(code, p).unwrap();
        // Per-logical-column load of a mixed workload on one stripe.
        let ops = trace(&layout, WorkloadKind::Mixed, None, ctx.seed);
        let per_col: Vec<f64> = run_workload(&layout, &ops)
            .accesses
            .per_disk
            .iter()
            .map(|&x| x as f64)
            .collect();

        let name = code.name();
        println!("\n{name} (p={p}, mixed workload): LF of the physical disks");
        for (name, skew) in skews {
            let [unrot, rot] = [RotationScheme::None, RotationScheme::PerStripe].map(|rotation| {
                lf(&physical_loads(
                    &layout, &per_col, rotation, n_stripes, skew,
                ))
            });
            sheet.row(row![code.name(), name, unrot, rot]);
        }
        sheet.print_table();
    }
    // No newline: the CSV line goes straight under the takeaway.
    print!(
        "\nRotation rescues unbalanced codes only under uniform stripe access; \
         as popularity skews toward a hot stripe it converges back to the \
         unrotated imbalance. A balanced code (D-Code) needs no rescue."
    );
    sheet.save_csv("rotation_study.csv")
}

/// Extension study: degraded-read cost under **two** concurrent disk
/// failures — beyond the paper's single-failure experiments, but the
/// scenario RAID-6 exists for. For every code and prime, measures the
/// average element reads per 8-element request, over every failure pair,
/// in normal / single-degraded / double-degraded modes.
///
/// Beside the modelled columns stands a *measured* one: the same requests
/// read through `ResilientArray` over a counting backend, block reads per
/// request in each mode. The array and the model plan single-failure reads
/// with the same minimum-read search and double-failure reads with the
/// same peeling plan, so measured must equal the model disk for disk, and
/// the study fails where it does not.
pub fn double_failure_study(_: &Ctx) -> Result<(), String> {
    let len = 8usize;
    let mut sheet = Sheet::new(vec![
        col("code", Plain, "code", Plain),
        col("", Plain, "p", Plain),
        col("normal", Fixed(2), "normal_reads", Fixed(4)),
        col("1 failure", Fixed(2), "single_degraded_reads", Fixed(4)),
        col("2 failures", Fixed(2), "double_degraded_reads", Fixed(4)),
        col("2-fail overhead", Times(2), "", Plain),
        col("", Plain, "measured_normal_reads", Fixed(4)),
        col("", Plain, "measured_single_reads", Fixed(4)),
        col("", Plain, "measured_double_reads", Fixed(4)),
        col("measured (0/1/2 failures)", Plain, "", Plain),
    ]);
    let mut off_model = Vec::new();
    for &p in &PRIMES {
        println!("\n=== Reads per {len}-element request at p = {p} (avg over starts & failure cases) ===");
        for &code in &EVALUATED_CODES {
            let layout = build(code, p).expect("codes build");
            let disks = layout.disks();
            let singles: Vec<Vec<usize>> = (0..disks).map(|f| vec![f]).collect();
            let pairs: Vec<Vec<usize>> = (0..disks)
                .flat_map(|a| (a + 1..disks).map(move |b| vec![a, b]))
                .collect();
            let (normal, normal_measured) = mean_reads(&layout, len, &[vec![]], &mut off_model);
            let (single, single_measured) = mean_reads(&layout, len, &singles, &mut off_model);
            let (double, double_measured) = mean_reads(&layout, len, &pairs, &mut off_model);
            sheet.row(row![
                code.name(),
                p,
                normal,
                single,
                double,
                double / normal,
                normal_measured,
                single_measured,
                double_measured,
                format!("{normal_measured:.2} / {single_measured:.2} / {double_measured:.2}"),
            ]);
        }
        sheet.print_table();
    }
    sheet.save_csv("double_failure_study.csv")?;
    model_gate(&off_model)
}

/// Per-disk block reads `ResilientArray::read` issues for `len` elements
/// from every start, on an unrotated array (slot = disk = column) with the
/// `failed` disks down and no spare.
fn measured_reads(layout: &CodeLayout, failed: &[usize], len: usize) -> Vec<Vec<u64>> {
    let data_len = layout.data_len();
    let mut array = counting_array(layout, (data_len - 1 + len).div_ceil(data_len), 0);
    for &disk in failed {
        array.fail_disk(disk).expect("healthy slot");
    }
    (0..data_len)
        .map(|start| {
            array.backend_mut().reset();
            array.read(start, len).expect("at most two failures");
            array.backend_mut().counts().reads.clone()
        })
        .collect()
}

/// Mean total reads per request over `cases` (failure sets), model and
/// measured; requests whose per-disk reads differ land in `off_model`.
fn mean_reads(
    layout: &CodeLayout,
    len: usize,
    cases: &[Vec<usize>],
    off_model: &mut Vec<String>,
) -> (f64, f64) {
    let (mut model, mut measured) = (Vec::new(), Vec::new());
    for failed in cases {
        for (start, reads) in measured_reads(layout, failed, len).into_iter().enumerate() {
            let modelled = match failed[..] {
                [] => normal_read_accesses(layout, start, len),
                [f] => degraded_read_accesses(layout, start, len, f),
                [a, b] => double_degraded_read_accesses(layout, start, len, [a, b]),
                _ => unreachable!("at most two failures"),
            };
            if reads != modelled.per_disk {
                off_model.push(format!(
                    "{} p={} failed {failed:?} start {start}: measured {reads:?}, modelled {:?}",
                    layout.name(),
                    layout.prime(),
                    modelled.per_disk
                ));
            }
            model.push(modelled.total() as f64);
            measured.push(reads.iter().sum::<u64>() as f64);
        }
    }
    (mean(model), mean(measured))
}

/// Extension study: partial-stripe *write* cost while one disk is failed.
/// A write hitting the failed disk must reconstruct the old value before
/// the parity delta can be computed; codes whose continuous elements share
/// parities reuse the write's own reads for that reconstruction.
pub fn degraded_write_study(_: &Ctx) -> Result<(), String> {
    let len = 6usize;
    let mut sheet = Sheet::new(vec![
        col("code", Plain, "code", Plain),
        col("", Plain, "p", Plain),
        col("normal", Fixed(2), "normal_write_ios", Fixed(4)),
        col("degraded", Fixed(2), "degraded_write_ios", Fixed(4)),
        col("overhead", Change(1), "", Plain),
    ]);
    for &p in &PRIMES {
        println!(
            "\n=== Element I/Os per {len}-element write at p = {p} (avg over starts / failure cases) ==="
        );
        for &code in &EVALUATED_CODES {
            let layout = build(code, p).expect("codes build");
            let starts = 0..layout.data_len();
            let ios = |s, f| match f {
                None => write_accesses(&layout, s, len).total() as f64,
                Some(f) => degraded_write_accesses(&layout, s, len, f).total() as f64,
            };
            let normal = mean(starts.clone().map(|s| ios(s, None)));
            let failures = (0..layout.disks()).flat_map(|f| starts.clone().map(move |s| (s, f)));
            let degraded = mean(failures.map(|(s, f)| ios(s, Some(f))));
            sheet.row(row![
                code.name(),
                p,
                normal,
                degraded,
                change(degraded, normal)
            ]);
        }
        sheet.print_table();
    }
    sheet.save_csv("degraded_write_study.csv")
}

/// Extension study: read-modify-write vs reconstruct-write element I/Os as
/// the write length grows — the classic small-write trade-off, per code.
/// Codes whose continuous elements share parities (D-Code, RDP, H-Code)
/// keep RMW cheap for longer; diagonal-only codes (X-Code) hit the
/// reconstruct-write crossover earlier.
///
/// Beside the two modelled columns stands a *measured* one: the same
/// write driven through `ResilientArray` over a counting backend, block
/// reads plus block writes. The array picks its branch from the layout,
/// so measured must equal the cheaper model, and the study fails where it
/// does not: a write path that regresses to whole-stripe I/O fails here,
/// not at the next benchmark run.
pub fn write_policy(_: &Ctx) -> Result<(), String> {
    let p = 11;
    let mut sheet = Sheet::new(vec![
        col("", Plain, "code", Plain),
        col("", Plain, "p", Plain),
        col("L", Plain, "len", Plain),
        col("RMW", Plain, "rmw_ios", Plain),
        col("reconstruct", Plain, "reconstruct_ios", Plain),
        col("winner", Plain, "", Plain),
        col("measured", Plain, "measured_ios", Plain),
    ]);
    let mut off_model = Vec::new();
    println!("=== Element I/Os per write of L continuous elements (p = {p}, start 0) ===");
    for &code in &EVALUATED_CODES {
        let layout = build(code, p).unwrap();
        let (name, data_len) = (code.name(), layout.data_len());
        println!("\n{name} ({data_len} data elements per stripe):");
        let mut crossover: Option<usize> = None;
        for l in [1, 2, 4, 8, 16, 32, 64]
            .into_iter()
            .filter(|&l| l <= data_len)
        {
            let rmw = rmw_ios(&layout, 0, l);
            let rcw = reconstruct_write_ios(&layout, 0, l);
            let measured = measured_ios(&layout, 0, l);
            if rcw < rmw && crossover.is_none() {
                crossover = Some(l);
            }
            if measured != rmw.min(rcw) {
                off_model.push(format!(
                    "{name} L={l}: measured {measured}, modelled min({rmw}, {rcw})"
                ));
            }
            let winner = if rmw <= rcw { "RMW" } else { "reconstruct" };
            sheet.row(row![name, p, l, rmw, rcw, winner, measured]);
        }
        sheet.print_table();
        match crossover {
            Some(l) => println!("  → reconstruct-write wins from L = {l}"),
            None => println!("  → RMW wins at every tested length"),
        }
    }
    sheet.save_csv("write_policy.csv")?;
    model_gate(&off_model)
}

fn rmw_ios(layout: &CodeLayout, start: usize, count: usize) -> usize {
    2 * (count
        + layout
            .update_closure(&run_cells(layout, start, count))
            .len())
}

/// Block reads + writes `ResilientArray` issues for the write, on a
/// healthy, unjournaled one-stripe array already holding data.
fn measured_ios(layout: &CodeLayout, start: usize, count: usize) -> usize {
    let mut array = counting_array(layout, 1, 0);
    array.backend_mut().reset();
    let data = vec![0x5A; count * BLOCK];
    array.write(start, &data).expect("write");
    let counts = array.backend_mut().counts();
    (counts.reads.iter().sum::<u64>() + counts.writes.iter().sum::<u64>()) as usize
}

/// Extension study: per-request latency distributions at queue depth 1 —
/// the tail-latency complement to Figures 6–7's saturated throughput.
/// Degraded-mode reconstruction inflates the tail most for codes whose
/// extra reads are scattered (X-Code); D-Code's shared horizontal parities
/// keep p99 close to the healthy case.
pub fn latency_study(ctx: &Ctx) -> Result<(), String> {
    let p = 11;
    let params = ExperimentParams::default();
    let mut sheet = Sheet::new(vec![
        col("", Plain, "mode", Plain),
        col("code", Plain, "code", Plain),
        col("", Plain, "p", Plain),
        col("mean", Fixed(2), "mean_ms", Fixed(4)),
        col("p50", Fixed(2), "p50_ms", Fixed(4)),
        col("p95", Fixed(2), "p95_ms", Fixed(4)),
        col("p99", Fixed(2), "p99_ms", Fixed(4)),
        col("max", Fixed(2), "max_ms", Fixed(4)),
    ]);
    type Latency = fn(&CodeLayout, ExperimentParams, u64) -> LatencyStats;
    let modes: [(&str, &str, Latency); 2] = [
        ("normal", "Normal-mode", normal_read_latency),
        ("degraded", "Degraded-mode", degraded_read_latency),
    ];
    for (mode, title, latency) in modes {
        println!("\n=== {title} read latency at p = {p} (ms, queue depth 1) ===");
        for &code in &EVALUATED_CODES {
            let s = latency(&build(code, p).unwrap(), params, ctx.seed);
            sheet.row(row![
                mode,
                code.name(),
                p,
                s.mean_ms,
                s.p50_ms,
                s.p95_ms,
                s.p99_ms,
                s.max_ms,
            ]);
        }
        sheet.print_table();
    }
    sheet.save_csv("latency_study.csv")
}

/// Extension study: response time vs offered load (event-driven
/// queueing). The complement to Figure 6's saturated throughput: codes
/// with idle parity disks saturate their data spindles at lower offered
/// load, so their response-time knee arrives earlier than D-Code's.
pub fn load_sweep(ctx: &Ctx) -> Result<(), String> {
    let p = 11;
    let params = ExperimentParams::default();
    let rates = [10.0f64, 30.0, 50.0, 70.0, 90.0];
    let labels: Vec<String> = rates.iter().map(|r| format!("{r:.0}/s")).collect();
    let n_requests = 4000;
    let mut sheet = Sheet::new(vec![
        col("", Plain, "mode", Plain),
        col("code", Plain, "code", Plain),
        col("", Plain, "p", Plain),
        col("", Plain, "rate", Plain),
        col("", Fixed(1), "mean_ms", Fixed(4)),
        col("", Plain, "p95_ms", Fixed(4)),
        col("", Plain, "peak_util", Fixed(4)),
    ]);
    for (mode, failed) in [("normal", None), ("degraded (disk 0 down)", Some(0))] {
        println!("\n=== Mean response time (ms) vs offered load, p = {p}, {mode} ===");
        for &code in &EVALUATED_CODES {
            let layout = build(code, p).unwrap();
            for &rate in &rates {
                let pt = simulate_load(&layout, params, rate, n_requests, failed, ctx.seed);
                sheet.row(row![
                    mode,
                    code.name(),
                    p,
                    rate,
                    pt.mean_response_ms,
                    pt.p95_response_ms,
                    pt.peak_utilization,
                ]);
            }
        }
        sheet.print_pivot(1, 4, &labels);
    }
    sheet.save_csv("load_sweep.csv")
}

/// Extension study: the paper's Figures 4–5 under a *skewed* (Zipf)
/// trace instead of uniform tuples. Real workloads concentrate on hot
/// data; this study checks that D-Code's balance and cost advantages
/// survive hot-spot skew (they should — its parity placement is uniform
/// in the stripe, so no logical hot spot maps onto a parity bottleneck).
pub fn hotspot_study(ctx: &Ctx) -> Result<(), String> {
    let p = 11;
    let mut sheet = Sheet::new(vec![
        col("", Plain, "skew", Plain),
        col("code", Plain, "code", Plain),
        col("", Plain, "p", Plain),
        col("LF", Fixed(2), "lf", LF_CSV),
        col("I/O cost", Plain, "cost", Plain),
        col("vs D-Code", Change(1), "", Plain),
    ]);
    for (label, skew) in [
        ("uniform (skew 0)", 0.0),
        ("zipf 1.2", 1.2),
        ("zipf 2.5", 2.5),
    ] {
        println!("\n=== Mixed Zipf trace, {label}, p = {p} ===");
        let params = ZipfTraceParams {
            skew,
            read_fraction: 0.5,
            ..Default::default()
        };
        let run = |code| {
            let layout = build(code, p).unwrap();
            run_workload(&layout, &zipf_trace(layout.data_len(), params, ctx.seed))
        };
        let dcode_cost = run(CodeId::DCode).cost() as f64;
        for &code in &EVALUATED_CODES {
            let res = run(code);
            let rel = change(res.cost() as f64, dcode_cost);
            sheet.row(row![label, code.name(), p, res.lf(), res.cost(), rel]);
        }
        sheet.print_table();
    }
    sheet.save_csv("hotspot_study.csv")
}

/// Rebuild-window study: how the ~25% hybrid-recovery read reduction
/// (Section III-D) translates into whole-disk rebuild throughput on the
/// simulated array.
pub fn rebuild_time(_: &Ctx) -> Result<(), String> {
    let model = DiskModel::default();
    let block = 64 * 1024;
    let mut sheet = Sheet::new(vec![
        col("code", Plain, "code", Plain),
        col("", Plain, "p", Plain),
        col("conv reads", Plain, "conv_reads", Plain),
        col("opt reads", Plain, "opt_reads", Plain),
        col("conv MB/s", Fixed(1), "conv_mb_s", Fixed(3)),
        col("opt MB/s", Fixed(1), "opt_mb_s", Fixed(3)),
        col("speedup", Times(2), "", Plain),
    ]);
    for &p in &PRIMES {
        println!("\n=== Rebuild throughput at p = {p} (MB/s of rebuilt data) ===");
        for &code in &ALL_CODES {
            let layout = build(code, p).expect("codes build");
            let c = average_rebuild(&layout, RebuildScheme::Conventional, model, block);
            let o = average_rebuild(&layout, RebuildScheme::Optimized, model, block);
            sheet.row(row![
                code.name(),
                p,
                c.reads_per_stripe,
                o.reads_per_stripe,
                c.rebuild_mb_s,
                o.rebuild_mb_s,
                o.rebuild_mb_s / c.rebuild_mb_s,
            ]);
        }
        sheet.print_table();
    }
    sheet.save_csv("rebuild_time.csv")
}

/// Section II-C quantified: how many distinct parity elements a run of L
/// continuous data elements touches, per code — the paper's "possibility
/// of continuous data elements sharing the common parities" as a table.
/// Lower = cheaper partial writes and degraded reads. The cascade column
/// includes parity-on-parity updates (RDP, HDP), which is what a write
/// actually pays.
pub fn sharing_analysis(_: &Ctx) -> Result<(), String> {
    let p = 11;
    let lens = [1usize, 2, 4, 8, 16];

    println!("=== Adjacent-element parity sharing probability (p = {p}) ===\n");
    let mut share = Sheet::new(vec![
        col("code", Plain, "", Plain),
        col("P(share)", Fixed(3), "", Plain),
    ]);
    let mut runs = Sheet::new(vec![
        col("code", Plain, "code", Plain),
        col("", Plain, "p", Plain),
        col("", Plain, "len", Plain),
        col("", Plain, "avg_parities", Fixed(4)),
        col("", Plain, "avg_with_cascade", Fixed(4)),
        col("", Plain, "max_parities", Plain),
        col("", Plain, "", Plain),
    ]);
    for &code in &EVALUATED_CODES {
        let layout = build(code, p).unwrap();
        let prob = adjacent_sharing_probability(&layout);
        share.row(row![code.name(), prob]);
        for &l in &lens {
            let l = l.min(layout.data_len());
            let s = sharing_stats(&layout, l);
            let cell = format!("{:.1}/{:.1}", s.avg_parities, s.avg_parities_with_cascade);
            runs.row(row![
                code.name(),
                p,
                l,
                s.avg_parities,
                s.avg_parities_with_cascade,
                s.max_parities,
                cell,
            ]);
        }
    }
    share.print_table();
    println!(
        "\n=== Mean distinct parities touched by an L-element run (direct / with cascade) ===\n"
    );
    let labels: Vec<String> = lens.iter().map(|l| format!("L={l}")).collect();
    runs.print_pivot(0, 6, &labels);
    println!(
        "\nD-Code's horizontal groups make long runs share parities like a\n\
         horizontal code, while X-Code pays ~2 fresh parities per element —\n\
         the mechanism behind Figures 1, 5, and 7."
    );
    runs.save_csv("sharing_analysis.csv")
}

/// Extension study: do the paper's p ≤ 13 trends continue at larger array
/// sizes? Runs the Figure 4/5 pipeline at p up to 29 (D-Code spans 29
/// disks there) using the parallel workload runner.
pub fn scalability_study(ctx: &Ctx) -> Result<(), String> {
    const BIG_PRIMES: [usize; 7] = [5, 7, 11, 13, 17, 23, 29];
    let mixed = |code: CodeId, p: usize| {
        let layout = build(code, p).expect("all codes build at these primes");
        let ops = trace(
            &layout,
            WorkloadKind::Mixed,
            Some(1000),
            ctx.seed ^ p as u64,
        );
        (layout.disks(), run_workload_parallel(&layout, &ops, 4))
    };
    let dcode_costs: Vec<f64> = BIG_PRIMES
        .iter()
        .map(|&p| mixed(CodeId::DCode, p).1.cost() as f64)
        .collect();
    let mut sheet = Sheet::new(vec![
        col("", Plain, "code", Plain),
        col("p", Plain, "p", Plain),
        col("disks", Plain, "disks", Plain),
        col("LF", Fixed(2), "lf", LF_CSV),
        col("", Plain, "cost", Plain),
        col("cost vs D-Code", Change(1), "", Plain),
    ]);
    println!("=== Mixed-workload LF and I/O cost up to p = 29 ===");
    for &code in &EVALUATED_CODES {
        println!("\n{}:", code.name());
        for (&p, &dcost) in BIG_PRIMES.iter().zip(&dcode_costs) {
            let (disks, res) = mixed(code, p);
            let rel = change(res.cost() as f64, dcost);
            sheet.row(row![code.name(), p, disks, res.lf(), res.cost(), rel]);
        }
        sheet.print_table();
    }
    sheet.save_csv("scalability_study.csv")
}

/// Extension study: mean time to data loss. Rebuild speed enters MTTDL
/// quadratically, so Section III-D's hybrid-recovery saving compounds: the
/// ~27% read reduction becomes a ~1.7× reliability gain for
/// D-Code/X-Code.
pub fn reliability_study(_: &Ctx) -> Result<(), String> {
    let params = ReliabilityParams::default();
    let yr = 24.0 * 365.0;
    let mttf = params.disk_mttf_hours / 1e6;
    println!("=== MTTDL with 300 GB Savvio-class disks (MTTF {mttf:.1}M hours) ===");
    let mut sheet = Sheet::new(vec![
        col("code", Plain, "code", Plain),
        col("", Plain, "p", Plain),
        col("disks", Plain, "", Plain),
        col("MTTR conv (h)", Fixed(1), "mttr_conv_h", Fixed(3)),
        col("MTTR opt (h)", Fixed(1), "mttr_opt_h", Fixed(3)),
        col("MTTDL conv (yr)", Sci(2), "", Plain),
        col("MTTDL opt (yr)", Sci(2), "", Plain),
        col("gain", Times(2), "", Plain),
        col("", Plain, "mttdl_conv_h", Sci(5)),
        col("", Plain, "mttdl_opt_h", Sci(5)),
    ]);
    for &p in &PRIMES {
        println!("\np = {p}:");
        for &code in &ALL_CODES {
            let layout = build(code, p).expect("codes build");
            let conv = estimate(&layout, RebuildScheme::Conventional, params);
            let opt = estimate(&layout, RebuildScheme::Optimized, params);
            sheet.row(row![
                code.name(),
                p,
                layout.disks(),
                conv.mttr_hours,
                opt.mttr_hours,
                conv.mttdl_hours / yr,
                opt.mttdl_hours / yr,
                opt.mttdl_hours / conv.mttdl_hours,
                conv.mttdl_hours,
                opt.mttdl_hours,
            ]);
        }
        sheet.print_table();
    }
    sheet.save_csv("reliability_study.csv")
}

/// Extension study: load balance *while degraded* — the surviving disks
/// absorb the failed disk's traffic plus reconstruction reads; how evenly
/// depends on the parity geometry.
pub fn degraded_balance_study(ctx: &Ctx) -> Result<(), String> {
    let mut sheet = Sheet::new(vec![
        col("code", Plain, "code", Plain),
        col("", Plain, "p", Plain),
        col("mean LF", Fixed(2), "mean_lf", FiniteOr(4, -1.0)),
        col("worst LF", Fixed(2), "worst_lf", FiniteOr(4, -1.0)),
    ]);
    for &p in &[7usize, 13] {
        println!("\n=== Degraded-mode LF, read-only workload, p = {p} (worst / mean over failure cases) ===");
        for &code in &EVALUATED_CODES {
            let layout = build(code, p).unwrap();
            let ops = trace(&layout, WorkloadKind::ReadOnly, Some(500), ctx.seed);
            // The paper's convention: data-disk failure cases. The failed
            // disk serves nothing, so the LF is over the survivors.
            let lfs: Vec<f64> = (0..layout.disks())
                .filter(|&failed| layout.data_count_in_col(failed) > 0)
                .map(|failed| {
                    let res = run_workload_degraded(&layout, &ops, failed);
                    let loads = res.accesses.per_disk.iter().map(|&v| v as f64);
                    let survivors: Vec<f64> = (loads.enumerate())
                        .filter_map(|(d, v)| (d != failed).then_some(v))
                        .collect();
                    lf(&survivors)
                })
                .collect();
            let worst = lfs.iter().copied().fold(0.0, f64::max);
            sheet.row(row![code.name(), p, mean(lfs), worst]);
        }
        sheet.print_table();
    }
    sheet.save_csv("degraded_balance.csv")
}

/// Tile-size sweep for the tile-major schedule executor — the one timing
/// study here; arguments `[p] [block_bytes] [batch]` default to p = 13,
/// 64 KiB blocks, 16-stripe batches. For every registry code, times
/// per-stripe [`XorProgram::run_with_tile`] over the batch across a sweep
/// of tile sizes, printing GiB/s per point. The `tile=block` column pins
/// the tile to the block size — one iteration per stripe, which *is* the
/// op-major order the library shipped before tile-major replay — so the
/// slow path stays measurable here without staying in the library. This
/// is the measurement behind the calibration probe's candidate set
/// ([`dcode_codec::tile::TILE_CANDIDATES`]) — rerun it when moving to a
/// new host.
pub fn fused_tile_study(ctx: &Ctx) -> Result<(), String> {
    const TILES: [usize; 6] = [4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10];
    const REPS: usize = 5;
    let arg = |i: usize, default: usize| ctx.args.get(i).copied().unwrap_or(default);
    let (p, block, batch) = (arg(0, 13), arg(1, 64 * 1024), arg(2, 16));

    println!("tile sweep: p={p} block={block} batch={batch} reps={REPS}");
    println!(
        "{:<10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "code", "tile=block", "4K", "8K", "16K", "32K", "64K", "128K"
    );
    for &code in &EVALUATED_CODES {
        let layout = build(code, p).map_err(|e| format!("{} at p={p}: {e}", code.name()))?;
        let program = XorProgram::compile_encode(&layout);
        let data: Vec<u8> = (0..layout.data_len() * block)
            .map(|i| (i % 251) as u8)
            .collect();
        let stripe = Stripe::from_data(&layout, block, &data);
        // Encode in place: it overwrites only parity, so re-running on the
        // same batch is idempotent and measures the steady-state encode
        // rather than the cache eviction a fresh 146 MB clone causes.
        let mut ss: Vec<Stripe> = (0..batch).map(|_| stripe.clone()).collect();
        let bytes = layout.data_len() * block * batch;

        let mut row = format!("{:<10}", code.name());
        for (k, tile) in std::iter::once(block).chain(TILES).enumerate() {
            let mut best = u128::MAX;
            for _ in 0..REPS {
                let t0 = Instant::now();
                for s in &mut ss {
                    program.run_with_tile(s, tile);
                }
                best = best.min(t0.elapsed().as_nanos());
            }
            let width = if k == 0 { 10 } else { 9 };
            let gib_s = bytes as f64 / best as f64 * 1e9 / (1024.0 * 1024.0 * 1024.0);
            row.push_str(&format!(" {gib_s:>width$.3}"));
        }
        println!("{row}");
    }
    Ok(())
}
