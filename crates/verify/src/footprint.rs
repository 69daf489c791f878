//! Per-disk static read/write footprints of compiled programs.
//!
//! A program's disk traffic is fully determined by its flat arrays: every
//! op writes its target block once, and reads each source block from disk
//! unless an earlier op already produced it in memory (RDP's diagonal
//! parity reads the just-computed row parity, not the platter). Counting
//! distinct blocks per column yields the same per-disk access vectors
//! `dcode-iosim` accumulates dynamically, so both sides feed the paper's
//! load-balancing factor (eq. (8)) through the identical
//! [`load_balancing_factor`](dcode_iosim::load_balancing_factor) function
//! — that is the static-vs-dynamic cross-check.

use dcode_codec::XorProgram;
use dcode_core::grid::{Cell, Grid};
use dcode_core::layout::CodeLayout;
use dcode_iosim::DiskAccesses;
use std::collections::BTreeSet;

/// Distinct per-disk block reads and writes a program issues.
#[derive(Clone, Debug)]
pub struct StaticFootprint {
    /// Blocks fetched from disk per column (sources no earlier op
    /// produced, counted once).
    pub reads: DiskAccesses,
    /// Blocks written back per column (distinct op targets).
    pub writes: DiskAccesses,
}

impl StaticFootprint {
    /// Reads and writes summed — the combined per-disk load whose LF the
    /// paper's balanced-I/O claim bounds.
    pub fn combined(&self) -> DiskAccesses {
        let mut acc = self.reads.clone();
        acc.add_scaled(&self.writes, 1);
        acc
    }
}

/// Static footprint of any compiled program over `grid`.
pub fn program_footprint(grid: Grid, program: &XorProgram) -> StaticFootprint {
    let mut reads = DiskAccesses::zero(grid.cols);
    let mut writes = DiskAccesses::zero(grid.cols);
    let mut produced: BTreeSet<u32> = BTreeSet::new();
    let mut fetched: BTreeSet<u32> = BTreeSet::new();
    for op in 0..program.op_count() {
        for &s in program.op_sources(op) {
            if !produced.contains(&s) && fetched.insert(s) {
                reads.per_disk[s as usize % grid.cols] += 1;
            }
        }
        let t = program.op_target(op) as u32;
        if produced.insert(t) {
            writes.per_disk[program.op_target(op) % grid.cols] += 1;
        }
    }
    StaticFootprint { reads, writes }
}

/// Static footprint of a full-stripe **degraded read** with one failed
/// column: every surviving data element is read directly, and the lost
/// data elements are reconstructed through
/// [`optimal_recovery`](dcode_recovery::optimal_recovery)'s minimum-read
/// choice of equations given those direct reads — the search the array and
/// `dcode-iosim` use. The failed column contributes zero — compare its LF
/// over *surviving* disks.
pub fn degraded_read_footprint(layout: &CodeLayout, failed_col: usize) -> StaticFootprint {
    let grid = layout.grid();
    let mut reads = DiskAccesses::zero(grid.cols);
    let (lost, direct): (BTreeSet<Cell>, BTreeSet<Cell>) = layout
        .data_cells()
        .iter()
        .partition(|c| c.col == failed_col);
    let extra = dcode_recovery::optimal_recovery(layout, failed_col, &lost, &direct).reads;
    for cell in direct.iter().chain(&extra) {
        reads.per_disk[cell.col] += 1;
    }
    StaticFootprint {
        reads,
        writes: DiskAccesses::zero(grid.cols),
    }
}

/// The paper's LF over the surviving disks only (the failed column's zero
/// would otherwise force every degraded LF to ∞).
pub fn surviving_lf(acc: &DiskAccesses, failed_col: usize) -> f64 {
    let survivors: Vec<u64> = acc
        .per_disk
        .iter()
        .enumerate()
        .filter(|&(d, _)| d != failed_col)
        .map(|(_, &v)| v)
        .collect();
    dcode_iosim::load_balancing_factor(&DiskAccesses {
        per_disk: survivors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_baselines::registry::all_codes;
    use dcode_core::decoder::plan_column_recovery;

    #[test]
    fn encode_reads_equal_a_full_stripe_normal_read() {
        // The encode program reads exactly the data cells (each once), so
        // its static read footprint must equal iosim's dynamic accounting
        // of a full-stripe normal read.
        for layout in all_codes(7) {
            let program = XorProgram::compile_encode(&layout);
            let fp = program_footprint(layout.grid(), &program);
            let dynamic = dcode_iosim::normal_read_accesses(&layout, 0, layout.data_len());
            assert_eq!(fp.reads, dynamic, "{}", layout.name());
        }
    }

    #[test]
    fn recovery_footprint_matches_the_symbolic_plan() {
        // Program-derived reads must be the plan's surviving reads, and
        // writes must be exactly the erased cells.
        for layout in all_codes(7) {
            let grid = layout.grid();
            let plan = plan_column_recovery(&layout, &[1, 3]).unwrap();
            let program = XorProgram::compile_plan(grid, &plan);
            let fp = program_footprint(grid, &program);
            let mut plan_reads = DiskAccesses::zero(grid.cols);
            for c in plan.surviving_reads() {
                plan_reads.per_disk[c.col] += 1;
            }
            assert_eq!(fp.reads, plan_reads, "{}", layout.name());
            let mut plan_writes = DiskAccesses::zero(grid.cols);
            for &c in &plan.erased {
                plan_writes.per_disk[c.col] += 1;
            }
            assert_eq!(fp.writes, plan_writes, "{}", layout.name());
        }
    }

    #[test]
    fn in_program_intermediates_are_not_disk_reads() {
        // RDP's diagonal parity reads the row parity it just computed;
        // that must not count as a disk read of the row-parity column.
        let rdp = dcode_baselines::rdp::rdp(7).unwrap();
        let program = XorProgram::compile_encode(&rdp);
        let fp = program_footprint(rdp.grid(), &program);
        let row_parity_col = rdp.disks() - 2;
        assert_eq!(fp.reads.per_disk[row_parity_col], 0);
        assert!(fp.writes.per_disk[row_parity_col] > 0);
    }
}
