//! Probes: direct, timed calls into public functions whose cost the
//! wrappers cannot separate from the layer that calls them, at the shapes
//! the workload uses.

use dcode_codec::{ScheduleCache, Stripe};
use dcode_core::decoder::plan_recovery;
use dcode_core::layout::CodeLayout;
use dcode_core::Cell;
use dcode_server::{read_frame, write_frame, Request, Response};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mean µs per call of `f`, called repeatedly for `budget` after one
/// untimed warm-up call.
pub fn mean_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let elapsed = started.elapsed();
        if elapsed >= budget {
            return elapsed.as_nanos() as f64 / 1e3 / calls as f64;
        }
    }
}

fn noise(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i.wrapping_mul(131) >> 3) as u8).collect()
}

/// `dcode_faults::crc32` over one block.
pub fn crc32_block_us(block_size: usize, budget: Duration) -> f64 {
    let block = noise(block_size);
    mean_us(budget, || {
        black_box(dcode_faults::crc32(black_box(&block)));
    })
}

/// `dcode_codec::encode` of one stripe at the array's geometry.
pub fn encode_stripe_us(layout: &CodeLayout, block_size: usize, budget: Duration) -> f64 {
    let data = noise(layout.data_len() * block_size);
    let mut stripe = Stripe::from_data(layout, block_size, &data);
    mean_us(budget, || {
        dcode_codec::encode(layout, black_box(&mut stripe))
    })
}

/// One request and one reply through the wire codec on a `Vec`: encode,
/// frame, unframe, decode — a PUT of `value_len` bytes out and a value of
/// the same size back.
pub fn protocol_codec_us(value_len: usize, budget: Duration) -> f64 {
    let put = Request::Put {
        name: "c0-k0".into(),
        value: noise(value_len),
    };
    let value = Response::Value(noise(value_len));
    let mut wire = Vec::new();
    mean_us(budget, || {
        wire.clear();
        write_frame(&mut wire, &put.encode()).expect("vec write");
        write_frame(&mut wire, &value.encode()).expect("vec write");
        let mut cursor = wire.as_slice();
        let body = read_frame(&mut cursor).expect("frame").expect("body");
        black_box(Request::decode(&body).expect("request"));
        let body = read_frame(&mut cursor).expect("frame").expect("body");
        black_box(Response::decode(&body).expect("response"));
    }) / 2.0
}

/// Source reads minus one per target, per data element, of the cached
/// encode program (exact; the paper's optimum is 2 − 2/(n−2)).
pub fn xors_per_data_element(layout: &CodeLayout) -> f64 {
    let program = ScheduleCache::new().encode_program(layout);
    (program.source_count() - program.op_count()) as f64 / layout.data_len() as f64
}

/// Cold compile (and optimizer run) of the encode schedule.
pub fn schedule_compile_ms(layout: &CodeLayout) -> f64 {
    let started = Instant::now();
    black_box(ScheduleCache::new().encode_program(layout));
    started.elapsed().as_secs_f64() * 1e3
}

/// The fused executor's one-shot tile calibration: the first
/// `fused_tile_bytes()` of the process runs it, so call this before anything
/// encodes.
pub fn tile_calibrate_ms() -> f64 {
    let started = Instant::now();
    black_box(dcode_codec::fused_tile_bytes());
    started.elapsed().as_secs_f64() * 1e3
}

/// Planning the recovery of `cols`: mean µs per `plan_recovery` call and
/// surviving reads per lost element of the plan.
pub fn plan_recovery_cost(layout: &CodeLayout, cols: &[usize], budget: Duration) -> (f64, f64) {
    let grid = layout.grid();
    let erased: BTreeSet<Cell> = cols.iter().flat_map(|&c| grid.column(c)).collect();
    let us = mean_us(budget, || {
        black_box(plan_recovery(layout, black_box(&erased)).expect("recoverable"));
    });
    let plan = plan_recovery(layout, &erased).expect("recoverable");
    (
        us,
        plan.surviving_reads().len() as f64 / erased.len() as f64,
    )
}
