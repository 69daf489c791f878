//! Extension study: degraded-read cost under **two** concurrent disk
//! failures — beyond the paper's single-failure experiments, but the
//! scenario RAID-6 exists for. For every code and prime, measures the
//! average element reads per 8-element request, over every failure pair,
//! in normal / single-degraded / double-degraded modes.
//!
//! Beside the modelled columns stands a *measured* one: the same requests
//! read through `ResilientArray` over a counting backend, block reads per
//! request in each mode. The array and the model plan single-failure reads
//! with the same minimum-read search and double-failure reads with the
//! same peeling plan, so measured should equal the model disk for disk;
//! `--assert-model` exits non-zero where it does not (CI runs it).

use dcode_array::{ResilientArray, RetryPolicy, RotationScheme};
use dcode_bench::prelude::*;
use dcode_core::layout::CodeLayout;
use dcode_faults::{CountingBackend, MemBackend};
use dcode_iosim::access::{
    degraded_read_accesses, double_degraded_read_accesses, normal_read_accesses,
};

/// Per-disk block reads `ResilientArray::read` issues for `len` elements
/// from every start, on an unrotated array (slot = disk = column) with the
/// `failed` disks down and no spare.
fn measured_reads(layout: &CodeLayout, failed: &[usize], len: usize) -> Vec<Vec<u64>> {
    const BLOCK: usize = 8;
    let data_len = layout.data_len();
    let stripes = (data_len - 1 + len).div_ceil(data_len);
    let backend = CountingBackend::new(MemBackend::new(
        layout.disks(),
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
    let (mut model_sum, mut measured_sum, mut n) = (0u64, 0u64, 0usize);
    for failed in cases {
        for (start, measured) in measured_reads(layout, failed, len).into_iter().enumerate() {
            let model = match failed[..] {
                [] => normal_read_accesses(layout, start, len),
                [f] => degraded_read_accesses(layout, start, len, f),
                [a, b] => double_degraded_read_accesses(layout, start, len, [a, b]),
                _ => unreachable!("at most two failures"),
            };
            if measured != model.per_disk {
                off_model.push(format!(
                    "{} p={} failed {failed:?} start {start}: measured {measured:?}, modelled {:?}",
                    layout.name(),
                    layout.prime(),
                    model.per_disk
                ));
            }
            model_sum += model.total();
            measured_sum += measured.iter().sum::<u64>();
            n += 1;
        }
    }
    (model_sum as f64 / n as f64, measured_sum as f64 / n as f64)
}

fn main() {
    let assert_model = std::env::args().any(|a| a == "--assert-model");
    let len = 8usize;
    let mut csv_rows = Vec::new();
    let mut off_model = Vec::new();
    for &p in &PRIMES {
        println!("\n=== Reads per {len}-element request at p = {p} (avg over starts & failure cases) ===");
        let mut table = Table::new(&[
            "code",
            "normal",
            "1 failure",
            "2 failures",
            "2-fail overhead",
            "measured (0/1/2 failures)",
        ]);
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

            table.row(vec![
                code.name().to_string(),
                format!("{normal:.2}"),
                format!("{single:.2}"),
                format!("{double:.2}"),
                format!("{:.2}x", double / normal),
                format!("{normal_measured:.2} / {single_measured:.2} / {double_measured:.2}"),
            ]);
            csv_rows.push(format!(
                "{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
                code.name(),
                p,
                normal,
                single,
                double,
                normal_measured,
                single_measured,
                double_measured
            ));
        }
        table.print();
    }
    let path = write_csv(
        "double_failure_study.csv",
        "code,p,normal_reads,single_degraded_reads,double_degraded_reads,measured_normal_reads,measured_single_reads,measured_double_reads",
        &csv_rows,
    );
    println!("\nCSV written to {}", path.display());
    if !off_model.is_empty() {
        println!(
            "\nmeasured reads off the model ({} requests):",
            off_model.len()
        );
        for line in off_model.iter().take(20) {
            println!("  {line}");
        }
        if assert_model {
            std::process::exit(1);
        }
    }
}
