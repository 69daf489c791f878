//! The paper's read-speed experiments (Section V).
//!
//! * Normal mode: 2000 experiments per code per prime, random start and
//!   random size in 1..=20 elements (Section V-B).
//! * Degraded mode: every data-disk failure case, 200 experiments each
//!   (Section V-C).
//!
//! Reported metrics are read speed (MB/s) and *average* read speed — speed
//! divided by the number of disks — because the codes span different disk
//! counts (Section V-B's normalization).

use crate::array::ArraySim;
use crate::model::DiskModel;
use dcode_core::layout::CodeLayout;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Result of one read-speed experiment series.
#[derive(Clone, Copy, Debug)]
pub struct ReadSpeed {
    /// Aggregate read speed in MB/s.
    pub mb_s: f64,
    /// Per-disk average speed in MB/s (speed / disks).
    pub avg_mb_s: f64,
}

/// Parameters shared by both experiment kinds; defaults match Section V.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentParams {
    /// Experiments per series in normal mode.
    pub normal_trials: usize,
    /// Experiments per failure case in degraded mode.
    pub degraded_trials_per_case: usize,
    /// Inclusive read-size range in elements.
    pub len_range: (usize, usize),
    /// Element size in bytes.
    pub block_bytes: usize,
    /// Drive constants.
    pub model: DiskModel,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            normal_trials: 2000,
            degraded_trials_per_case: 200,
            len_range: (1, 20),
            block_bytes: 64 * 1024,
            model: DiskModel::default(),
        }
    }
}

/// One request of the paper's workload: a uniform start over the stripe's
/// `data_len` elements, then a uniform length in `len_range`.
pub(crate) fn draw(rng: &mut StdRng, data_len: usize, len_range: (usize, usize)) -> (usize, usize) {
    let start = (rng.next_u64() % data_len as u64) as usize;
    let (lo, hi) = len_range;
    (start, lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize)
}

/// Normal-mode read speed (Figure 6).
///
/// Models a saturated array (the paper issues its 2000 experiments against
/// a real array whose disks overlap work): per-disk service times accumulate
/// independently and the series finishes when the busiest disk drains, so
/// `speed = total bytes / max_disk(Σ service)`. Idle parity disks (RDP,
/// H-Code) directly cost aggregate throughput, and fragmented layouts
/// (H-Code/HDP parities inside the stripe) pay extra settles — exactly the
/// paper's two explanations for Figure 6.
pub fn normal_read_speed(layout: &CodeLayout, params: ExperimentParams, seed: u64) -> ReadSpeed {
    let sim = ArraySim::new(layout, params.model, params.block_bytes);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total_bytes = 0f64;
    let mut busy = vec![0f64; layout.disks()];
    for _ in 0..params.normal_trials {
        let (start, len) = draw(&mut rng, layout.data_len(), params.len_range);
        total_bytes += (len * params.block_bytes) as f64;
        for (b, w) in busy.iter_mut().zip(sim.normal_read_work(start, len)) {
            *b += w;
        }
    }
    let makespan_ms = busy.into_iter().fold(0.0, f64::max);
    let mb_s = total_bytes / 1e6 / (makespan_ms / 1e3);
    ReadSpeed {
        mb_s,
        avg_mb_s: mb_s / layout.disks() as f64,
    }
}

/// The disks that hold at least one data element — the paper's "k different
/// data disk failure cases".
pub fn data_disks(layout: &CodeLayout) -> Vec<usize> {
    (0..layout.disks())
        .filter(|&c| layout.data_count_in_col(c) > 0)
        .collect()
}

/// Degraded-mode read speed (Figure 7): average over every data-disk
/// failure case.
pub fn degraded_read_speed(layout: &CodeLayout, params: ExperimentParams, seed: u64) -> ReadSpeed {
    let sim = ArraySim::new(layout, params.model, params.block_bytes);
    let mut total_bytes = 0f64;
    let mut makespan_ms = 0f64;
    for failed in data_disks(layout) {
        // Each failure case is a separate saturated series on the surviving
        // disks (the failed disk serves nothing).
        let mut rng = StdRng::seed_from_u64(seed ^ (failed as u64) << 32);
        let mut busy = vec![0f64; layout.disks()];
        for _ in 0..params.degraded_trials_per_case {
            let (start, len) = draw(&mut rng, layout.data_len(), params.len_range);
            total_bytes += (len * params.block_bytes) as f64;
            for (b, w) in busy
                .iter_mut()
                .zip(sim.degraded_read_work(start, len, failed))
            {
                *b += w;
            }
        }
        makespan_ms += busy.into_iter().fold(0.0, f64::max);
    }
    let mb_s = total_bytes / 1e6 / (makespan_ms / 1e3);
    ReadSpeed {
        mb_s,
        avg_mb_s: mb_s / layout.disks() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_baselines::registry::{build, CodeId};

    fn quick() -> ExperimentParams {
        ExperimentParams {
            normal_trials: 300,
            degraded_trials_per_case: 50,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let l = build(CodeId::DCode, 7).unwrap();
        let a = normal_read_speed(&l, quick(), 1);
        let b = normal_read_speed(&l, quick(), 1);
        assert_eq!(a.mb_s, b.mb_s);
    }

    #[test]
    fn data_disk_enumeration() {
        assert_eq!(data_disks(&build(CodeId::DCode, 7).unwrap()).len(), 7);
        assert_eq!(data_disks(&build(CodeId::Rdp, 7).unwrap()).len(), 6);
        assert_eq!(data_disks(&build(CodeId::HCode, 7).unwrap()).len(), 7);
        assert_eq!(data_disks(&build(CodeId::Hdp, 7).unwrap()).len(), 6);
    }

    #[test]
    fn dcode_normal_read_beats_rdp() {
        // The paper's headline: all n disks contribute to D-Code reads,
        // while RDP idles two parity disks.
        let p = 7;
        let d = normal_read_speed(&build(CodeId::DCode, p).unwrap(), quick(), 3);
        let r = normal_read_speed(&build(CodeId::Rdp, p).unwrap(), quick(), 3);
        assert!(d.mb_s > r.mb_s, "D-Code {} vs RDP {}", d.mb_s, r.mb_s);
    }

    #[test]
    fn degraded_slower_than_normal() {
        let l = build(CodeId::DCode, 7).unwrap();
        let n = normal_read_speed(&l, quick(), 5);
        let d = degraded_read_speed(&l, quick(), 5);
        assert!(d.mb_s < n.mb_s);
    }

    #[test]
    fn dcode_degraded_beats_xcode() {
        // Figure 7's headline: D-Code 11.6%–26.0% above X-Code.
        let p = 11;
        let d = degraded_read_speed(&build(CodeId::DCode, p).unwrap(), quick(), 9);
        let x = degraded_read_speed(&build(CodeId::XCode, p).unwrap(), quick(), 9);
        assert!(d.mb_s > x.mb_s, "D-Code {} vs X-Code {}", d.mb_s, x.mb_s);
    }
}
