//! First-order rotating-disk service-time model.
//!
//! The paper measures read speed on a real array of Seagate Savvio 10K.3
//! drives (10 000 RPM, 300 GB SAS) with codes implemented on Jerasure 1.2.
//! This model substitutes that hardware (DESIGN.md §6).
//!
//! The paper's absolute figures (≈ 9–14 MB/s per busy spindle) show each
//! element access behaving as an independent random I/O — consistent with a
//! Jerasure-style implementation issuing element-granular reads with no
//! request coalescing. [`Coalescing::None`] (the default) models that:
//! every element pays a full positioning (seek + rotational latency) plus
//! its transfer. [`Coalescing::Settle`] is the ablation knob: physically
//! adjacent elements (consecutive rows of one column) stream back-to-back
//! for a small settle cost, which amortizes positioning and compresses the
//! cross-code gaps — `dcode-bench -- ablation_coalescing` quantifies this.

/// How physically adjacent elements of one request are charged.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Coalescing {
    /// Every element is an independent random I/O (matches the paper's
    /// measured per-spindle throughput).
    None,
    /// Consecutive elements in a run pay only this settle (ms) plus
    /// transfer; each run pays one full positioning.
    Settle(f64),
}

/// Service-time constants for one disk.
#[derive(Copy, Clone, Debug)]
pub struct DiskModel {
    /// Average seek time in milliseconds.
    pub seek_ms: f64,
    /// Average rotational latency in milliseconds (half a revolution).
    pub rotational_ms: f64,
    /// Sustained transfer rate in MB/s (1 MB = 10^6 bytes).
    pub transfer_mb_s: f64,
    /// Whether adjacent elements coalesce.
    pub coalescing: Coalescing,
}

impl Default for DiskModel {
    fn default() -> Self {
        // Savvio 10K.3: 10k RPM → 3 ms average rotational latency; ~4 ms
        // average read seek; ~125 MB/s sustained transfer.
        DiskModel {
            seek_ms: 4.0,
            rotational_ms: 3.0,
            transfer_mb_s: 125.0,
            coalescing: Coalescing::None,
        }
    }
}

impl DiskModel {
    /// Time to move one element's bytes, in milliseconds.
    pub fn transfer_ms(&self, block_bytes: usize) -> f64 {
        block_bytes as f64 / (self.transfer_mb_s * 1e6) * 1e3
    }

    /// Service time for one disk in one request: `runs` contiguous runs
    /// totalling `elements` blocks of `block_bytes` each. Zero elements
    /// costs nothing (the disk is not involved).
    pub fn service_ms(&self, runs: usize, elements: usize, block_bytes: usize) -> f64 {
        if elements == 0 {
            return 0.0;
        }
        debug_assert!(runs >= 1 && runs <= elements);
        let positioning = self.seek_ms + self.rotational_ms;
        let transfer = elements as f64 * self.transfer_ms(block_bytes);
        match self.coalescing {
            Coalescing::None => elements as f64 * positioning + transfer,
            Coalescing::Settle(settle_ms) => {
                runs as f64 * positioning + (elements - runs) as f64 * settle_ms + transfer
            }
        }
    }
}

/// Count contiguous runs among a disk's element rows (sorted ascending):
/// rows `r` and `r+1` stream back-to-back, anything else breaks the run.
pub fn count_runs(sorted_rows: &[usize]) -> usize {
    if sorted_rows.is_empty() {
        return 0;
    }
    1 + sorted_rows.windows(2).filter(|w| w[1] != w[0] + 1).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_elements_no_time() {
        let m = DiskModel::default();
        assert_eq!(m.service_ms(0, 0, 65536), 0.0);
    }

    #[test]
    fn element_random_io_cost() {
        let m = DiskModel::default();
        let t = m.service_ms(1, 1, 65536);
        assert!(t > 7.0 && t < 8.0, "one 64 KiB element ≈ 7.5 ms, got {t}");
        // Per-element accounting: two elements cost exactly twice.
        assert!((m.service_ms(1, 2, 65536) - 2.0 * t).abs() < 1e-9);
    }

    #[test]
    fn coalescing_amortizes_positioning() {
        let m = DiskModel {
            coalescing: Coalescing::Settle(0.8),
            ..Default::default()
        };
        let contiguous = m.service_ms(1, 4, 65536);
        let fragmented = m.service_ms(4, 4, 65536);
        assert!(fragmented > contiguous);
        // 3 extra positionings replace 3 settles.
        assert!((fragmented - contiguous - 3.0 * (7.0 - 0.8)).abs() < 1e-9);
        // Coalesced runs are much cheaper than element-random I/O.
        let random = DiskModel::default().service_ms(1, 4, 65536);
        assert!(contiguous < random);
    }

    #[test]
    fn transfer_scales_linearly() {
        let m = DiskModel::default();
        let t1 = m.service_ms(1, 1, 1_000_000);
        let t2 = m.service_ms(1, 2, 1_000_000);
        // Second element adds a positioning (7 ms) plus 8 ms transfer.
        assert!((t2 - t1 - 15.0).abs() < 1e-9);
    }

    #[test]
    fn run_counting() {
        assert_eq!(count_runs(&[]), 0);
        assert_eq!(count_runs(&[3]), 1);
        assert_eq!(count_runs(&[0, 1, 2]), 1);
        assert_eq!(count_runs(&[0, 2, 3]), 2);
        assert_eq!(count_runs(&[0, 2, 4]), 3);
    }
}
