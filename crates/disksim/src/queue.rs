//! Event-driven queueing simulation: response time under offered load.
//!
//! Figures 6–7 measure a saturated array (throughput) and the [`latency`]
//! module measures queue depth 1. Real arrays live in between: requests
//! arrive continuously and queue per disk. This module runs a discrete
//! event simulation — Poisson arrivals, FCFS per-disk queues, a request
//! completing when its last disk finishes — and reports the response-time
//! curve as the offered load rises toward saturation. The knee of that
//! curve is where parity-idle disks (RDP, H-Code) hurt: their data disks
//! saturate earlier, so the curve lifts at lower offered load than
//! D-Code's. `dcode-bench -- load_sweep` tabulates the curve per code.
//!
//! [`latency`]: crate::latency

use crate::array::ArraySim;
use crate::experiment::{draw, ExperimentParams};
use dcode_core::layout::CodeLayout;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Result of one offered-load point.
#[derive(Clone, Copy, Debug)]
pub struct LoadPoint {
    /// Offered load in requests per second.
    pub arrival_rate: f64,
    /// Mean response time (queueing + service) in ms.
    pub mean_response_ms: f64,
    /// 95th-percentile response time in ms.
    pub p95_response_ms: f64,
    /// Fraction of the busiest disk's time spent serving.
    pub peak_utilization: f64,
}

/// Simulate `n_requests` read requests arriving Poisson at `arrival_rate`
/// (requests/s) against a `layout` array, in normal mode or with one failed
/// disk.
pub fn simulate_load(
    layout: &CodeLayout,
    params: ExperimentParams,
    arrival_rate: f64,
    n_requests: usize,
    failed: Option<usize>,
    seed: u64,
) -> LoadPoint {
    assert!(arrival_rate > 0.0 && n_requests > 0);
    let sim = ArraySim::new(layout, params.model, params.block_bytes);
    let mut rng = StdRng::seed_from_u64(seed);
    let unit = |rng: &mut StdRng| (rng.next_u64() as f64 + 1.0) / (u64::MAX as f64 + 2.0);

    let disks = layout.disks();
    // Next instant each disk becomes free (ms).
    let mut disk_free = vec![0f64; disks];
    let mut busy_total = vec![0f64; disks];
    let mut clock_ms = 0f64;
    let mut responses = Vec::with_capacity(n_requests);

    for _ in 0..n_requests {
        // Poisson arrivals: exponential inter-arrival times.
        let dt_ms = -unit(&mut rng).ln() / arrival_rate * 1e3;
        clock_ms += dt_ms;

        let (start, len) = draw(&mut rng, layout.data_len(), params.len_range);
        let work = match failed {
            None => sim.normal_read_work(start, len),
            Some(f) => sim.degraded_read_work(start, len, f),
        };

        // Each involved disk serves this request FCFS after its queue.
        let mut finish = clock_ms;
        for (d, w) in work.iter().enumerate() {
            if *w <= 0.0 {
                continue;
            }
            let begin = disk_free[d].max(clock_ms);
            let end = begin + w;
            disk_free[d] = end;
            busy_total[d] += w;
            finish = finish.max(end);
        }
        responses.push(finish - clock_ms);
    }

    let horizon = disk_free.iter().copied().fold(clock_ms, f64::max).max(1e-9);
    let peak_utilization = busy_total.iter().map(|&b| b / horizon).fold(0.0, f64::max);

    responses.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mean = responses.iter().sum::<f64>() / responses.len() as f64;
    let p95 = responses[((responses.len() - 1) as f64 * 0.95).round() as usize];
    LoadPoint {
        arrival_rate,
        mean_response_ms: mean,
        p95_response_ms: p95,
        peak_utilization,
    }
}

/// Sweep arrival rates and return the response curve.
pub fn load_sweep(
    layout: &CodeLayout,
    params: ExperimentParams,
    rates: &[f64],
    n_requests: usize,
    failed: Option<usize>,
    seed: u64,
) -> Vec<LoadPoint> {
    rates
        .iter()
        .map(|&r| simulate_load(layout, params, r, n_requests, failed, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_baselines::registry::{build, CodeId};
    use dcode_core::dcode::dcode;

    fn quick() -> ExperimentParams {
        ExperimentParams::default()
    }

    #[test]
    fn response_time_rises_with_load() {
        let layout = dcode(7).unwrap();
        let pts = load_sweep(&layout, quick(), &[5.0, 30.0, 60.0], 800, None, 3);
        assert!(pts[0].mean_response_ms < pts[2].mean_response_ms);
        assert!(pts[0].peak_utilization < pts[2].peak_utilization);
    }

    #[test]
    fn low_load_response_matches_service_time_scale() {
        // At nearly idle load, responses are pure service times: a few to
        // tens of ms for 1–20 element requests under the default model.
        let layout = dcode(7).unwrap();
        let pt = simulate_load(&layout, quick(), 1.0, 400, None, 9);
        assert!(
            pt.mean_response_ms > 5.0 && pt.mean_response_ms < 40.0,
            "{}",
            pt.mean_response_ms
        );
    }

    #[test]
    fn parity_idle_codes_saturate_earlier() {
        // At a rate chosen near RDP's knee, RDP's busiest (data) disk is
        // more utilized than D-Code's, so its response time is worse.
        let rate = 55.0;
        let d = simulate_load(
            &build(CodeId::DCode, 7).unwrap(),
            quick(),
            rate,
            2000,
            None,
            11,
        );
        let r = simulate_load(
            &build(CodeId::Rdp, 7).unwrap(),
            quick(),
            rate,
            2000,
            None,
            11,
        );
        assert!(r.peak_utilization > d.peak_utilization);
        assert!(r.mean_response_ms > d.mean_response_ms);
    }

    #[test]
    fn degraded_mode_amplifies_response_time() {
        let layout = dcode(7).unwrap();
        let normal = simulate_load(&layout, quick(), 30.0, 1500, None, 5);
        let degraded = simulate_load(&layout, quick(), 30.0, 1500, Some(2), 5);
        assert!(degraded.mean_response_ms > normal.mean_response_ms);
    }

    #[test]
    fn deterministic() {
        let layout = dcode(5).unwrap();
        let a = simulate_load(&layout, quick(), 20.0, 300, None, 1);
        let b = simulate_load(&layout, quick(), 20.0, 300, None, 1);
        assert_eq!(a.mean_response_ms, b.mean_response_ms);
    }
}
