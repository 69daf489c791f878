//! Per-disk access accounting for reads and partial-stripe writes.
//!
//! This is the paper's I/O model (Sections II and IV):
//!
//! * a **normal read** of `L` continuous data elements touches exactly the
//!   disks holding those elements — parity disks contribute nothing;
//! * a **degraded read** (one failed disk) additionally reads, for every
//!   lost requested element, the surviving cells of one parity equation
//!   covering it; elements already being read are free, shared sources are
//!   read once. The equation per lost element is
//!   [`dcode_recovery::optimal_recovery`]'s minimum-read choice — the same
//!   search the array replays — and continuous runs sharing one horizontal
//!   parity are exactly what makes D-Code cheap here (Figure 1(a) vs 1(c));
//! * a **partial-stripe write** is a read-modify-write: every written data
//!   element and every affected parity element (including RDP/HDP-style
//!   cascades) is read once and written once (Figure 1(b) vs 1(d)).
//!
//! Requests longer than one stripe wrap into the (identically laid out)
//! next stripe: the request is cut at stripe boundaries, as an array
//! serves it — the rest of the first stripe, whole stripes, the start of
//! the last — and sharing is accounted per stripe instance.

use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use dcode_recovery::optimal_recovery;
use std::collections::BTreeSet;

/// Per-disk access counts for one operation or an accumulated workload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DiskAccesses {
    /// `per_disk[d]` = number of element I/Os on disk `d`.
    pub per_disk: Vec<u64>,
}

impl DiskAccesses {
    /// All-zero counters for `disks` disks.
    pub fn zero(disks: usize) -> Self {
        DiskAccesses {
            per_disk: vec![0; disks],
        }
    }

    /// Add `other`, scaled by `times` (an op repeated `T` times).
    pub fn add_scaled(&mut self, other: &DiskAccesses, times: u64) {
        assert_eq!(self.per_disk.len(), other.per_disk.len());
        for (a, b) in self.per_disk.iter_mut().zip(&other.per_disk) {
            *a += b * times;
        }
    }

    /// Total accesses across all disks (the paper's `Cost`).
    pub fn total(&self) -> u64 {
        self.per_disk.iter().sum()
    }

    /// Count one access to the disk holding `cell`.
    fn bump(&mut self, cell: Cell, amount: u64) {
        self.per_disk[cell.col] += amount;
    }
}

/// Split a logical request `[start, start+len)` over stripes of
/// `data_len` elements at the stripe boundaries into `(full_passes,
/// boundary_segments)`: the whole stripes it covers, and the partial
/// stripe instances at either end as `(start, len)` inside one stripe.
pub fn segments(data_len: usize, start: usize, len: usize) -> (usize, Vec<(usize, usize)>) {
    assert!(data_len > 0);
    let start = start % data_len;
    let head = ((data_len - start) % data_len).min(len);
    let (full, tail) = ((len - head) / data_len, (len - head) % data_len);
    let segs = [(start, head), (0, tail)];
    (full, segs.into_iter().filter(|&(_, l)| l > 0).collect())
}

/// Accesses of a normal-mode read.
pub fn normal_read_accesses(layout: &CodeLayout, start: usize, len: usize) -> DiskAccesses {
    let mut acc = DiskAccesses::zero(layout.disks());
    let data_len = layout.data_len();
    let (full, segs) = segments(data_len, start, len);
    if full > 0 {
        for &cell in layout.data_cells() {
            acc.bump(cell, full as u64);
        }
    }
    for (s, l) in segs {
        for i in s..s + l {
            acc.bump(layout.logical_to_cell(i), 1);
        }
    }
    acc
}

/// The resolved plan for one degraded-read segment: which equations were
/// chosen for the lost elements and which surviving cells get read.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DegradedSegmentPlan {
    /// Requested cells that survive (read directly).
    pub surviving_requested: Vec<Cell>,
    /// Requested cells on the failed disk (reconstructed), in the order
    /// they are rebuilt.
    pub lost: Vec<Cell>,
    /// Equation chosen per lost cell (parallel to `lost`). It holds no
    /// failed-disk cell but its target and lost cells rebuilt before it.
    pub chosen_eqs: Vec<usize>,
    /// Extra surviving cells read for reconstruction (beyond the requested
    /// ones), deduplicated.
    pub extra_reads: BTreeSet<Cell>,
}

impl DegradedSegmentPlan {
    /// Total element reads issued to disks for this segment.
    pub fn total_reads(&self) -> usize {
        self.surviving_requested.len() + self.extra_reads.len()
    }
}

/// Plan one degraded-read segment (`len ≤ data_len`) under a single failed
/// disk: [`optimal_recovery`] of the lost requested elements, holding the
/// surviving requested ones.
pub fn plan_degraded_segment(
    layout: &CodeLayout,
    start: usize,
    len: usize,
    failed_col: usize,
) -> DegradedSegmentPlan {
    assert!(len <= layout.data_len());
    assert!(failed_col < layout.disks());
    let (lost, surviving_requested): (Vec<Cell>, Vec<Cell>) = (start..start + len)
        .map(|i| layout.logical_to_cell(i))
        .partition(|c| c.col == failed_col);
    let plan = optimal_recovery(
        layout,
        failed_col,
        &lost.into_iter().collect(),
        &surviving_requested.iter().copied().collect(),
    );
    DegradedSegmentPlan {
        surviving_requested,
        lost: plan.choices.iter().map(|&(cell, _)| cell).collect(),
        chosen_eqs: plan.choices.iter().map(|&(_, eq)| eq).collect(),
        extra_reads: plan.reads,
    }
}

/// Accesses of a degraded-mode read with one failed disk.
pub fn degraded_read_accesses(
    layout: &CodeLayout,
    start: usize,
    len: usize,
    failed_col: usize,
) -> DiskAccesses {
    let mut acc = DiskAccesses::zero(layout.disks());
    let data_len = layout.data_len();
    let (full, segs) = segments(data_len, start, len);
    let mut all_segs = segs;
    if full > 0 {
        // A full pass is the (0, data_len) segment repeated.
        for _ in 0..full {
            all_segs.push((0, data_len));
        }
    }
    for (s, l) in all_segs {
        let plan = plan_degraded_segment(layout, s, l, failed_col);
        for c in &plan.surviving_requested {
            acc.bump(*c, 1);
        }
        for c in &plan.extra_reads {
            acc.bump(*c, 1);
        }
    }
    acc
}

/// Accesses of a degraded-mode read with *two* failed disks — beyond the
/// paper's single-failure experiments, but the natural worst case for a
/// RAID-6 array. Lost requested elements are reconstructed through the
/// peeling chains of the double-failure recovery plan, restricted (via
/// [`dcode_core::decoder::RecoveryPlan::subplan_for`]) to exactly the
/// chains the request needs; requested elements already read are free.
pub fn double_degraded_read_accesses(
    layout: &CodeLayout,
    start: usize,
    len: usize,
    failed: [usize; 2],
) -> DiskAccesses {
    use dcode_core::decoder::plan_column_recovery;
    assert!(failed[0] != failed[1]);
    let mut acc = DiskAccesses::zero(layout.disks());
    let data_len = layout.data_len();
    let (full, segs) = segments(data_len, start, len);
    let mut all_segs = segs;
    for _ in 0..full {
        all_segs.push((0, data_len));
    }
    let full_plan =
        plan_column_recovery(layout, &failed).expect("verified RAID-6 codes tolerate two failures");
    for (s, l) in all_segs {
        let requested: Vec<Cell> = (s..s + l).map(|i| layout.logical_to_cell(i)).collect();
        let surviving: Vec<Cell> = requested
            .iter()
            .copied()
            .filter(|c| c.col != failed[0] && c.col != failed[1])
            .collect();
        let lost: BTreeSet<Cell> = requested
            .iter()
            .copied()
            .filter(|c| c.col == failed[0] || c.col == failed[1])
            .collect();
        let surviving_set: BTreeSet<Cell> = surviving.iter().copied().collect();
        for &c in &surviving {
            acc.bump(c, 1);
        }
        if !lost.is_empty() {
            let sub = full_plan.subplan_for(&lost);
            for cell in sub.surviving_reads() {
                if !surviving_set.contains(&cell) {
                    acc.bump(cell, 1);
                }
            }
        }
    }
    acc
}

/// Accesses of a read-modify-write partial-stripe write: each written data
/// element and each affected parity is read once and written once.
pub fn write_accesses(layout: &CodeLayout, start: usize, len: usize) -> DiskAccesses {
    let mut acc = DiskAccesses::zero(layout.disks());
    let data_len = layout.data_len();
    let (full, segs) = segments(data_len, start, len);
    let mut all_segs = segs;
    for _ in 0..full {
        all_segs.push((0, data_len));
    }
    for (s, l) in all_segs {
        let cells: Vec<Cell> = (s..s + l).map(|i| layout.logical_to_cell(i)).collect();
        for &c in &cells {
            acc.bump(c, 2); // read old + write new
        }
        for parity in layout.update_closure(&cells) {
            acc.bump(parity, 2); // read old + write new
        }
    }
    acc
}

/// Accesses of a read-modify-write partial-stripe write with one failed
/// disk — an extension beyond the paper's normal-mode write accounting.
///
/// * A written element on a *surviving* disk is read (old value) and
///   written, as in normal mode.
/// * A written element on the *failed* disk cannot be stored, but its
///   change must reach the parities: its old value is first reconstructed
///   through one parity equation (extra reads, shared with the values the
///   write already reads), then the delta is folded into its parities.
/// * Parities residing on the failed disk are skipped (they are
///   reconstructed at rebuild time anyway).
pub fn degraded_write_accesses(
    layout: &CodeLayout,
    start: usize,
    len: usize,
    failed_col: usize,
) -> DiskAccesses {
    let mut acc = DiskAccesses::zero(layout.disks());
    let data_len = layout.data_len();
    let (full, segs) = segments(data_len, start, len);
    let mut all_segs = segs;
    for _ in 0..full {
        all_segs.push((0, data_len));
    }
    for (s, l) in all_segs {
        let written: Vec<Cell> = (s..s + l).map(|i| layout.logical_to_cell(i)).collect();
        let (lost_written, surviving_written): (BTreeSet<Cell>, BTreeSet<Cell>) =
            written.iter().partition(|c| c.col == failed_col);

        // Surviving written elements: read old + write new.
        for &c in &surviving_written {
            acc.bump(c, 2);
        }

        // Lost written elements: reconstruct old values. The surviving
        // written elements' old values are already read, so they are free
        // sources; the extra reconstruction reads are the degraded-read
        // search's.
        let extra = optimal_recovery(layout, failed_col, &lost_written, &surviving_written).reads;
        for &c in &extra {
            acc.bump(c, 1);
        }

        // Parity updates: read + write each affected parity that survives.
        for parity in layout.update_closure(&written) {
            if parity.col != failed_col {
                acc.bump(parity, 2);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_core::dcode::dcode;

    #[test]
    fn segment_decomposition() {
        assert_eq!(segments(10, 3, 4), (0, vec![(3, 4)]));
        assert_eq!(segments(10, 8, 4), (0, vec![(8, 2), (0, 2)]));
        assert_eq!(segments(10, 0, 10), (1, vec![]));
        assert_eq!(segments(10, 7, 25), (2, vec![(7, 3), (0, 2)]));
        assert_eq!(segments(10, 13, 4), (0, vec![(3, 4)]));
        // Cut where the stripes end, not a remainder at `start` plus passes.
        assert_eq!(segments(10, 3, 12), (0, vec![(3, 7), (0, 5)]));
        assert_eq!(segments(10, 3, 27), (2, vec![(3, 7)]));
    }

    #[test]
    fn normal_read_touches_only_data_disks() {
        let l = dcode(7).unwrap();
        let acc = normal_read_accesses(&l, 0, 7);
        // 7 continuous elements = the whole first row: one access per disk.
        assert_eq!(acc.per_disk, vec![1; 7]);
        assert_eq!(acc.total(), 7);
    }

    #[test]
    fn degraded_read_reuses_requested_elements() {
        // D-Code n=7: read D(1,3)..D(2,0) (logical 10..15) with disk 3
        // failed. The 5 requested elements share horizontal parity P(5,1);
        // the lost element D(1,3) is rebuilt from the other 4 (already
        // read) plus the parity — exactly 1 extra read.
        let l = dcode(7).unwrap();
        let plan = plan_degraded_segment(&l, 10, 5, 3);
        assert_eq!(plan.lost, vec![Cell::new(1, 3)]);
        assert_eq!(plan.extra_reads.len(), 1);
        assert_eq!(
            plan.extra_reads.iter().next().copied(),
            Some(Cell::new(5, 1))
        );
        assert_eq!(plan.total_reads(), 5);
    }

    #[test]
    fn single_element_degraded_read_costs_one_equation() {
        let l = dcode(7).unwrap();
        // Read exactly D(0,0) with disk 0 failed: must fetch one whole
        // equation minus the target = n−2 cells.
        let plan = plan_degraded_segment(&l, 0, 1, 0);
        assert_eq!(plan.surviving_requested.len(), 0);
        assert_eq!(plan.extra_reads.len(), 5); // (n−2)−1 members + parity
    }

    #[test]
    fn write_accounts_data_and_parities() {
        let l = dcode(7).unwrap();
        // One element: 2 I/Os data + 2×2 I/Os parity = 6.
        let acc = write_accesses(&l, 0, 1);
        assert_eq!(acc.total(), 6);
        // A full horizontal group (n−2 elements sharing one horizontal
        // parity): data 2(n−2); horizontal parities: 1 shared; deployment
        // parities: n−2 distinct → parity I/Os 2(1 + n−2).
        let acc = write_accesses(&l, 0, 5);
        assert_eq!(acc.total() as usize, 2 * 5 + 2 * (1 + 5));
    }

    #[test]
    fn double_degraded_read_costs_more_than_single() {
        let l = dcode(7).unwrap();
        for (start, len) in [(0usize, 5usize), (10, 9), (3, 14)] {
            let single = degraded_read_accesses(&l, start, len, 2).total();
            let double = double_degraded_read_accesses(&l, start, len, [2, 3]).total();
            let normal = normal_read_accesses(&l, start, len).total();
            assert!(
                double >= single,
                "start={start} len={len}: {double} < {single}"
            );
            assert!(single >= normal);
        }
    }

    #[test]
    fn double_degraded_never_reads_failed_disks() {
        let l = dcode(11).unwrap();
        let acc = double_degraded_read_accesses(&l, 4, 16, [0, 7]);
        assert_eq!(acc.per_disk[0], 0);
        assert_eq!(acc.per_disk[7], 0);
        assert!(acc.total() > 0);
    }

    #[test]
    fn wrapped_read_costs_full_passes() {
        let l = dcode(5).unwrap(); // data_len = 15
        let acc = normal_read_accesses(&l, 0, 30);
        assert_eq!(acc.total(), 30);
        let acc = normal_read_accesses(&l, 10, 20);
        assert_eq!(acc.total(), 20);
    }

    #[test]
    fn degraded_write_skips_failed_disk_and_costs_more_reads() {
        let l = dcode(7).unwrap();
        for (start, len) in [(0usize, 4usize), (10, 6), (20, 3)] {
            let normal = write_accesses(&l, start, len);
            for failed in 0..7 {
                let degraded = degraded_write_accesses(&l, start, len, failed);
                // Nothing is ever issued to the failed disk.
                assert_eq!(degraded.per_disk[failed], 0, "failed={failed}");
                // A write hitting the failed disk needs reconstruction
                // reads; one missing no lost elements can only save I/O
                // (skipped lost parities).
                let touches_failed = (start..start + len)
                    .any(|i| l.logical_to_cell(i).col == failed)
                    || l.update_closure(
                        &(start..start + len)
                            .map(|i| l.logical_to_cell(i))
                            .collect::<Vec<_>>(),
                    )
                    .iter()
                    .any(|c| c.col == failed);
                if !touches_failed {
                    assert_eq!(degraded.total(), normal.total());
                }
            }
        }
    }

    #[test]
    fn degraded_write_reconstruction_reuses_written_elements() {
        // Writing a full horizontal group with its only lost element inside:
        // the lost element's old value comes from the group's other members
        // (already read) plus the horizontal parity — 1 extra read.
        let l = dcode(7).unwrap();
        // Logical 10..15 share P(5,1); the lost element D(1,3) is on disk 3.
        let acc = degraded_write_accesses(&l, 10, 5, 3);
        // Lower bound: 4 surviving data RMW (8 I/Os) + 1 reconstruction
        // read (the shared horizontal parity) + updates to the horizontal
        // parity (2) and at least 4 surviving deployment parities (8).
        assert!(acc.total() >= 8 + 1 + 2 + 8, "total = {}", acc.total());
        assert_eq!(acc.per_disk[3], 0);
        // And it must be cheaper than reconstructing via a non-shared
        // equation would be: the extra-read set is exactly 1 element.
        let normal = write_accesses(&l, 10, 5).total();
        assert!(
            acc.total() <= normal + 1,
            "degraded {} vs normal {normal}",
            acc.total()
        );
    }

    #[test]
    fn add_scaled_accumulates() {
        let l = dcode(5).unwrap();
        let one = normal_read_accesses(&l, 0, 5);
        let mut acc = DiskAccesses::zero(5);
        acc.add_scaled(&one, 10);
        assert_eq!(acc.total(), one.total() * 10);
    }
}
