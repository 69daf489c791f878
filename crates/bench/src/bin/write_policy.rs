//! Extension study: read-modify-write vs reconstruct-write element I/Os as
//! the write length grows — the classic small-write trade-off, per code.
//! Codes whose continuous elements share parities (D-Code, RDP, H-Code)
//! keep RMW cheap for longer; diagonal-only codes (X-Code) hit the
//! reconstruct-write crossover earlier.
//!
//! Beside the two modelled columns stands a *measured* one: the same
//! write driven through `ResilientArray` over a counting backend, block
//! reads plus block writes. The array picks its branch from the layout,
//! so measured should equal the cheaper model; `--assert-model` exits
//! non-zero where it does not (CI runs it: a write path that regresses to
//! whole-stripe I/O fails there, not at the next benchmark run).

use dcode_array::{ResilientArray, RetryPolicy, RotationScheme};
use dcode_bench::prelude::*;
use dcode_codec::reconstruct_write_ios;
use dcode_core::layout::CodeLayout;
use dcode_faults::{CountingBackend, MemBackend};

fn rmw_ios(layout: &CodeLayout, start: usize, count: usize) -> usize {
    let cells: Vec<_> = (start..start + count)
        .map(|i| layout.logical_to_cell(i))
        .collect();
    2 * (count + layout.update_closure(&cells).len())
}

/// Block reads + writes `ResilientArray` issues for the write, on a
/// healthy, unjournaled one-stripe array already holding data.
fn measured_ios(layout: &CodeLayout, start: usize, count: usize) -> usize {
    const BLOCK: usize = 8;
    let backend = CountingBackend::new(MemBackend::new(layout.disks(), layout.rows(), BLOCK));
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
    array.backend_mut().reset();
    array.write(start, &fill[..count * BLOCK]).expect("write");
    let counts = array.backend_mut().counts();
    (counts.reads.iter().sum::<u64>() + counts.writes.iter().sum::<u64>()) as usize
}

fn main() {
    let assert_model = std::env::args().any(|a| a == "--assert-model");
    let p = 11;
    let mut csv_rows = Vec::new();
    let mut off_model = Vec::new();
    println!("=== Element I/Os per write of L continuous elements (p = {p}, start 0) ===\n");
    for &code in &EVALUATED_CODES {
        let layout = build(code, p).unwrap();
        let lens: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64]
            .into_iter()
            .filter(|&l| l <= layout.data_len())
            .collect();
        println!(
            "{} ({} data elements per stripe):",
            code.name(),
            layout.data_len()
        );
        let mut table = Table::new(&["L", "RMW", "reconstruct", "winner", "measured"]);
        let mut crossover: Option<usize> = None;
        for &l in &lens {
            let rmw = rmw_ios(&layout, 0, l);
            let rcw = reconstruct_write_ios(&layout, 0, l);
            let measured = measured_ios(&layout, 0, l);
            if rcw < rmw && crossover.is_none() {
                crossover = Some(l);
            }
            if measured != rmw.min(rcw) {
                off_model.push(format!(
                    "{} L={l}: measured {measured}, modelled min({rmw}, {rcw})",
                    code.name()
                ));
            }
            table.row(vec![
                l.to_string(),
                rmw.to_string(),
                rcw.to_string(),
                if rmw <= rcw { "RMW" } else { "reconstruct" }.to_string(),
                measured.to_string(),
            ]);
            csv_rows.push(format!(
                "{},{},{},{},{},{}",
                code.name(),
                p,
                l,
                rmw,
                rcw,
                measured
            ));
        }
        table.print();
        match crossover {
            Some(l) => println!("  → reconstruct-write wins from L = {l}\n"),
            None => println!("  → RMW wins at every tested length\n"),
        }
    }
    let path = write_csv(
        "write_policy.csv",
        "code,p,len,rmw_ios,reconstruct_ios,measured_ios",
        &csv_rows,
    );
    println!("CSV written to {}", path.display());
    for line in &off_model {
        println!("off model: {line}");
    }
    if assert_model && !off_model.is_empty() {
        std::process::exit(1);
    }
}
