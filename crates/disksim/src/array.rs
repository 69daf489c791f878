//! Array-level request timing: disks serve their element lists in parallel,
//! so a request completes when the busiest disk does.

use crate::model::{count_runs, DiskModel};
use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use dcode_iosim::access::{plan_degraded_segment, segments};

/// A simulated disk array running one code.
#[derive(Clone, Debug)]
pub struct ArraySim<'a> {
    layout: &'a CodeLayout,
    model: DiskModel,
    block_bytes: usize,
}

impl<'a> ArraySim<'a> {
    /// Build an array for `layout` with the given drive model and element
    /// (block) size in bytes.
    pub fn new(layout: &'a CodeLayout, model: DiskModel, block_bytes: usize) -> Self {
        assert!(block_bytes > 0);
        ArraySim {
            layout,
            model,
            block_bytes,
        }
    }

    /// The code this array runs.
    pub fn layout(&self) -> &CodeLayout {
        self.layout
    }

    /// Element size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Per-disk service time for one request fetching the given cells.
    /// `result[d]` is how long disk `d` is busy; zero when not involved.
    pub fn work_per_disk(&self, cells: &[Cell]) -> Vec<f64> {
        let disks = self.layout.disks();
        let mut rows_per_disk: Vec<Vec<usize>> = vec![Vec::new(); disks];
        for &c in cells {
            rows_per_disk[c.col].push(c.row);
        }
        rows_per_disk
            .into_iter()
            .map(|mut rows| {
                if rows.is_empty() {
                    return 0.0;
                }
                rows.sort_unstable();
                rows.dedup();
                self.model
                    .service_ms(count_runs(&rows), rows.len(), self.block_bytes)
            })
            .collect()
    }

    /// Request latency when each disk must fetch the given cells: the
    /// maximum per-disk service time (disks operate in parallel).
    pub fn request_ms(&self, cells: &[Cell]) -> f64 {
        self.work_per_disk(cells).into_iter().fold(0.0, f64::max)
    }

    /// Per-disk work of a normal-mode read (see [`ArraySim::work_per_disk`]).
    pub fn normal_read_work(&self, start: usize, len: usize) -> Vec<f64> {
        self.read_work(start, len, None)
    }

    /// Per-disk work of a degraded-mode read with `failed_col` down.
    pub fn degraded_read_work(&self, start: usize, len: usize, failed_col: usize) -> Vec<f64> {
        self.read_work(start, len, Some(failed_col))
    }

    /// Latency of a normal-mode read of `len` continuous logical elements
    /// starting at `start`. Requests longer than a stripe decompose into
    /// per-stripe sub-requests served back-to-back.
    pub fn normal_read_ms(&self, start: usize, len: usize) -> f64 {
        self.read_ms(start, len, None)
    }

    /// Latency of a degraded-mode read with `failed_col` down: surviving
    /// requested elements plus the reconstruction reads chosen by the
    /// degraded-read planner.
    pub fn degraded_read_ms(&self, start: usize, len: usize, failed_col: usize) -> f64 {
        self.read_ms(start, len, Some(failed_col))
    }

    fn read_work(&self, start: usize, len: usize, failed_col: Option<usize>) -> Vec<f64> {
        let mut acc = vec![0.0; self.layout.disks()];
        for (cells, times) in self.read_pieces(start, len, failed_col) {
            for (a, w) in acc.iter_mut().zip(self.work_per_disk(&cells)) {
                *a += w * times as f64;
            }
        }
        acc
    }

    fn read_ms(&self, start: usize, len: usize, failed_col: Option<usize>) -> f64 {
        let pieces = self.read_pieces(start, len, failed_col);
        pieces
            .iter()
            .map(|(cells, times)| *times as f64 * self.request_ms(cells))
            .sum()
    }

    /// A read's per-stripe sub-requests, each with the cells it fetches and
    /// how many stripes repeat it: the requested cells, plus — with
    /// `failed_col` down — the reconstruction reads of the degraded-read
    /// planner.
    fn read_pieces(
        &self,
        start: usize,
        len: usize,
        failed_col: Option<usize>,
    ) -> Vec<(Vec<Cell>, usize)> {
        let fetch = |s: usize, l: usize| -> Vec<Cell> {
            match failed_col {
                None => (s..s + l).map(|i| self.layout.logical_to_cell(i)).collect(),
                Some(col) => {
                    let plan = plan_degraded_segment(self.layout, s, l, col);
                    let extra = plan.extra_reads.into_iter();
                    plan.surviving_requested.into_iter().chain(extra).collect()
                }
            }
        };
        let data_len = self.layout.data_len();
        let (full, segs) = segments(data_len, start, len);
        let whole = (full > 0).then(|| (fetch(0, data_len), full));
        let parts = segs.into_iter().map(|(s, l)| (fetch(s, l), 1));
        whole.into_iter().chain(parts).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_core::dcode::dcode;

    #[test]
    fn parallel_disks_bound_by_busiest() {
        let l = dcode(7).unwrap();
        let sim = ArraySim::new(&l, DiskModel::default(), 65536);
        // One full row: 1 element on each of 7 disks → same latency as one
        // element on one disk.
        let row = sim.normal_read_ms(0, 7);
        let single = sim.normal_read_ms(0, 1);
        assert!((row - single).abs() < 1e-9);
        // Two rows: 2 elements per disk — exactly 2× under element-granular
        // random I/O (the default), strictly less under coalescing.
        let two_rows = sim.normal_read_ms(0, 14);
        assert!((two_rows - 2.0 * row).abs() < 1e-9);
        let coalescing = DiskModel {
            coalescing: crate::model::Coalescing::Settle(0.8),
            ..Default::default()
        };
        let sim2 = ArraySim::new(&l, coalescing, 65536);
        let two_rows2 = sim2.normal_read_ms(0, 14);
        assert!(two_rows2 < 2.0 * sim2.normal_read_ms(0, 7));
    }

    #[test]
    fn degraded_never_faster_than_normal() {
        let l = dcode(7).unwrap();
        let sim = ArraySim::new(&l, DiskModel::default(), 65536);
        for start in [0usize, 5, 12] {
            for len in [1usize, 4, 9] {
                let n = sim.normal_read_ms(start, len);
                for failed in 0..7 {
                    let d = sim.degraded_read_ms(start, len, failed);
                    assert!(
                        d >= n - 1e-9,
                        "degraded {d} < normal {n} (start={start}, len={len}, failed={failed})"
                    );
                }
            }
        }
    }

    #[test]
    fn work_vector_matches_latency_view() {
        let l = dcode(7).unwrap();
        let sim = ArraySim::new(&l, DiskModel::default(), 65536);
        for (start, len) in [(0usize, 3usize), (5, 10), (20, 7)] {
            let work = sim.normal_read_work(start, len);
            let max = work.iter().copied().fold(0.0, f64::max);
            assert!((max - sim.normal_read_ms(start, len)).abs() < 1e-9);
        }
    }

    #[test]
    fn degraded_work_loads_surviving_disks_only() {
        let l = dcode(7).unwrap();
        let sim = ArraySim::new(&l, DiskModel::default(), 65536);
        let work = sim.degraded_read_work(0, 10, 3);
        assert_eq!(work[3], 0.0, "failed disk serves nothing");
        assert!(work.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn degraded_read_missing_nothing_equals_normal() {
        let l = dcode(7).unwrap();
        let sim = ArraySim::new(&l, DiskModel::default(), 65536);
        // Elements 0..4 live on columns 0..4; disk 6 is not involved, but
        // the request may still pay reconstruction if any requested element
        // were lost — it is not, so latency matches the normal read.
        let n = sim.normal_read_ms(0, 5);
        let d = sim.degraded_read_ms(0, 5, 6);
        assert!((n - d).abs() < 1e-9);
    }
}
