//! Section III-D's single-failure recovery claim: the hybrid recovery
//! scheme (Xu et al.) reads ≈25% fewer elements than conventional recovery
//! for X-Code, and by Theorem 1 the same holds for D-Code.
//!
//! Beside the two modelled columns stands a *measured* one: every disk of
//! a one-stripe `ResilientArray` failed and rebuilt onto a spare over a
//! counting backend, block reads per rebuild. The array replays the
//! hybrid plan, so measured should equal the model column by column;
//! `--assert-model` exits non-zero where it does not (CI runs it: a
//! rebuild that regresses to per-block recovery fails there, not at the
//! next benchmark run). The last columns put the result on the scale of
//! optimal rebuilding: reads per rebuilt block against the `(n−1)/2`
//! cut-set bound that MDR codes meet.

use dcode_array::{ResilientArray, RetryPolicy, RotationScheme};
use dcode_baselines::registry::ALL_CODES;
use dcode_bench::prelude::*;
use dcode_core::layout::CodeLayout;
use dcode_faults::{CountingBackend, MemBackend};
use dcode_recovery::{measure_savings, optimal_rebuild};

/// Block reads `ResilientArray` issues to rebuild each disk in turn, on a
/// one-stripe unrotated array (slot = column) with a spare per disk.
fn measured_reads(layout: &CodeLayout) -> Vec<u64> {
    const BLOCK: usize = 8;
    let disks = layout.disks();
    let backend = CountingBackend::new(MemBackend::new(2 * disks, layout.rows(), BLOCK));
    let mut array = ResilientArray::format(
        layout.clone(),
        BLOCK,
        1,
        RotationScheme::None,
        backend,
        RetryPolicy::default(),
        1,
    );
    let fill = vec![0x5A; layout.data_len() * BLOCK];
    array.write(0, &fill).expect("fill");
    (0..disks)
        .map(|col| {
            array.backend_mut().reset();
            array.fail_disk(col).expect("healthy slot");
            while !array.rebuild_step(1).expect("rebuild") {}
            array.backend_mut().counts().reads.iter().sum()
        })
        .collect()
}

fn main() {
    let assert_model = std::env::args().any(|a| a == "--assert-model");
    let mut csv_rows = Vec::new();
    let mut off_model = Vec::new();
    println!("=== Single-disk recovery: conventional vs hybrid reads ===");
    println!("(conventional streams each equation independently; hybrid picks");
    println!(" equation families to overlap and reads each element once;");
    println!(" measured is what ResilientArray reads to rebuild a disk)\n");
    for &p in &PRIMES {
        println!("p = {p}:");
        let mut table = Table::new(&[
            "code",
            "conventional",
            "hybrid",
            "measured",
            "reduction",
            "reads/block",
            "(n-1)/2",
            "x bound",
        ]);
        for &code in &ALL_CODES {
            let layout = build(code, p).expect("codes build");
            let s = measure_savings(&layout);
            let measured = measured_reads(&layout);
            for (col, &reads) in measured.iter().enumerate() {
                let model = optimal_rebuild(&layout, col).read_count() as u64;
                if reads != model {
                    off_model.push(format!(
                        "{} p={p} disk {col}: measured {reads}, modelled {model}",
                        s.code
                    ));
                }
            }
            let disks = layout.disks() as f64;
            let mean = measured.iter().sum::<u64>() as f64 / disks;
            let per_block = mean / layout.rows() as f64;
            let bound = (disks - 1.0) / 2.0;
            table.row(vec![
                s.code.clone(),
                format!("{:.1}", s.conventional_reads),
                format!("{:.1}", s.optimized_reads),
                format!("{mean:.1}"),
                format!("{:.1}%", s.reduction_pct()),
                format!("{per_block:.2}"),
                format!("{bound:.1}"),
                format!("{:.2}", per_block / bound),
            ]);
            csv_rows.push(format!(
                "{},{},{:.2},{:.2},{:.2},{:.2},{:.3},{:.1}",
                s.code,
                p,
                s.conventional_reads,
                s.optimized_reads,
                s.reduction_pct(),
                mean,
                per_block,
                bound
            ));
        }
        table.print();
        println!();
    }
    let path = write_csv(
        "recovery_savings.csv",
        "code,p,conventional_reads,optimized_reads,reduction_pct,measured_reads,measured_reads_per_block,cut_set_bound",
        &csv_rows,
    );
    println!("CSV written to {}", path.display());
    if !off_model.is_empty() {
        println!("\nmeasured rebuild reads off the model:");
        for line in &off_model {
            println!("  {line}");
        }
        if assert_model {
            std::process::exit(1);
        }
    }
}
