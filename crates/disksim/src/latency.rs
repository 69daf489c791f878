//! Per-request latency distributions.
//!
//! The throughput experiments (Figures 6–7) measure a saturated array; a
//! lightly loaded array cares about *request latency* instead — especially
//! the tail, where degraded-mode reconstruction reads hurt most. This
//! module runs the paper's request mix at queue depth 1 and reports the
//! latency distribution per code.

use crate::array::ArraySim;
use crate::experiment::{data_disks, draw, ExperimentParams};
use dcode_core::layout::CodeLayout;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Summary statistics of a latency sample, in milliseconds.
#[derive(Clone, Copy, Debug)]
pub struct LatencyStats {
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Maximum observed.
    pub max_ms: f64,
}

/// Compute summary statistics from raw latencies.
pub fn summarize(mut samples: Vec<f64>) -> LatencyStats {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let pct = |q: f64| -> f64 {
        let idx = ((samples.len() as f64 - 1.0) * q).round() as usize;
        samples[idx]
    };
    LatencyStats {
        mean_ms: samples.iter().sum::<f64>() / samples.len() as f64,
        p50_ms: pct(0.50),
        p95_ms: pct(0.95),
        p99_ms: pct(0.99),
        max_ms: *samples.last().expect("non-empty"),
    }
}

/// Latency distribution of normal-mode reads at queue depth 1.
pub fn normal_read_latency(
    layout: &CodeLayout,
    params: ExperimentParams,
    seed: u64,
) -> LatencyStats {
    let sim = ArraySim::new(layout, params.model, params.block_bytes);
    let mut rng = StdRng::seed_from_u64(seed);
    let samples: Vec<f64> = (0..params.normal_trials)
        .map(|_| {
            let (start, len) = draw(&mut rng, layout.data_len(), params.len_range);
            sim.normal_read_ms(start, len)
        })
        .collect();
    summarize(samples)
}

/// Latency distribution of degraded-mode reads (every data-disk failure
/// case pooled) at queue depth 1.
pub fn degraded_read_latency(
    layout: &CodeLayout,
    params: ExperimentParams,
    seed: u64,
) -> LatencyStats {
    let sim = ArraySim::new(layout, params.model, params.block_bytes);
    let mut samples = Vec::new();
    for failed in data_disks(layout) {
        let mut rng = StdRng::seed_from_u64(seed ^ (failed as u64) << 24);
        for _ in 0..params.degraded_trials_per_case {
            let (start, len) = draw(&mut rng, layout.data_len(), params.len_range);
            samples.push(sim.degraded_read_ms(start, len, failed));
        }
    }
    summarize(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_core::dcode::dcode;

    fn quick() -> ExperimentParams {
        ExperimentParams {
            normal_trials: 200,
            degraded_trials_per_case: 40,
            ..Default::default()
        }
    }

    #[test]
    fn summarize_orders_percentiles() {
        let s = summarize(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.p50_ms, 3.0);
        assert_eq!(s.max_ms, 5.0);
        assert!(s.p95_ms <= s.max_ms && s.p50_ms <= s.p95_ms);
        assert!((s.mean_ms - 3.0).abs() < 1e-9);
    }

    #[test]
    fn degraded_tail_is_heavier() {
        let layout = dcode(7).unwrap();
        let n = normal_read_latency(&layout, quick(), 3);
        let d = degraded_read_latency(&layout, quick(), 3);
        assert!(d.mean_ms >= n.mean_ms);
        assert!(d.p99_ms >= n.p99_ms);
    }

    #[test]
    fn deterministic() {
        let layout = dcode(7).unwrap();
        let a = normal_read_latency(&layout, quick(), 9);
        let b = normal_read_latency(&layout, quick(), 9);
        assert_eq!(a.mean_ms, b.mean_ms);
    }
}
