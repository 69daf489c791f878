//! Criterion: thread-scaling of the bulk encode path, emitting
//! `BENCH_parallel.json` at the repository root.
//!
//! `bulk_fused/…/tN` is [`dcode_codec::bulk::run_batch`] on a dedicated
//! [`minipool::WorkerPool`] sized to the requested fan-out (so the pool
//! machinery is exercised even where the host clamp would collapse the
//! public API to sequential): the batch chunked over N workers, each
//! stripe replayed through the tile-major sequential loop
//! ([`XorProgram::run`]). The row id predates the one-executor refactor
//! and is kept so the trajectory in EXPERIMENTS.md stays comparable.
//!
//! The op-major order the library no longer ships is still measurable:
//! `fused_tile_study`'s `tile = block` column is exactly that order.
//!
//! Each row measures **steady-state in-place** encode of a
//! `bulk_stripes()`-deep stripe set, cloned once per benchmark and
//! re-encoded in place each iteration (encoding only overwrites parity
//! cells, so re-running is idempotent): a clone per iteration would hand
//! the timed run a batch that evicted itself while it was being copied.
//!
//! The JSON records `host_parallelism` alongside the medians: on a
//! single-core host the t2/t4/t8 rows measure pool overhead, not speedup,
//! and downstream tooling needs that context to read the numbers honestly.
//!
//! * `DCODE_BENCH_FAST=1` shrinks blocks and sample counts for CI smoke.

use criterion::{BenchmarkId, Criterion, Throughput};
use dcode_baselines::registry::{build, EVALUATED_CODES};
use dcode_codec::bulk::run_batch;
use dcode_codec::schedule::XorProgram;
use dcode_codec::{cache, Stripe};
use minipool::WorkerPool;
use std::io::Write;
use std::sync::Arc;

const P: usize = 13;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn fast() -> bool {
    std::env::var("DCODE_BENCH_FAST").is_ok_and(|v| v == "1")
}

fn block_bytes() -> usize {
    if fast() {
        4 * 1024
    } else {
        64 * 1024
    }
}

fn bulk_stripes() -> usize {
    if fast() {
        4
    } else {
        16
    }
}

fn payload(len: usize) -> Vec<u8> {
    let mut x = 0x243F6A8885A308D3u64;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 29) as u8
        })
        .collect()
}

fn bench_parallel(c: &mut Criterion) {
    let block = block_bytes();
    let mut group = c.benchmark_group("parallel");
    if fast() {
        group.sample_size(5);
    }
    for &code in &EVALUATED_CODES {
        let layout = build(code, P).unwrap();
        let program: Arc<XorProgram> = cache::global().encode_program(&layout);
        let data = payload(layout.data_len() * block);
        let stripe = Stripe::from_data(&layout, block, &data);
        let batch: Vec<Stripe> = (0..bulk_stripes()).map(|_| stripe.clone()).collect();
        for &t in &THREADS {
            let pool = WorkerPool::with_workers(t);
            group.throughput(Throughput::Bytes(
                (layout.data_len() * block * batch.len()) as u64,
            ));
            group.bench_function(
                BenchmarkId::new(format!("bulk_fused/{}", code.name()), format!("t{t}")),
                |b| {
                    let mut ss = batch.clone();
                    b.iter(|| run_batch(&program, &mut ss, &pool, t));
                },
            );
        }
    }
    group.finish();
}

fn gib(median_ns: f64, bytes: u64) -> f64 {
    if median_ns <= 0.0 {
        return 0.0;
    }
    bytes as f64 / median_ns * 1e9 / (1024.0 * 1024.0 * 1024.0)
}

/// Write `BENCH_parallel.json`: every measurement plus the host context a
/// reader needs to interpret thread-scaling on this machine.
fn emit_trajectory_point(c: &Criterion) {
    let results = c.results();
    let mut entries = String::new();
    for r in results {
        let bytes = match r.throughput {
            Some(criterion::Throughput::Bytes(b)) => b,
            _ => 0,
        };
        entries.push_str(&format!(
            "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"gib_per_s\": {:.4}}},\n",
            r.id,
            r.median_ns,
            gib(r.median_ns, bytes)
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"parallel\",\n  \"p\": {P},\n  \"block_bytes\": {},\n  \
         \"bulk_stripes\": {},\n  \"threads\": [1, 2, 4, 8],\n  \
         \"host_parallelism\": {},\n  \"fused_tile_bytes\": {},\n  \"results\": [\n{}  ]\n}}\n",
        block_bytes(),
        bulk_stripes(),
        minipool::host_parallelism(),
        dcode_codec::fused_tile_bytes(),
        entries.trim_end_matches(",\n").to_string() + "\n",
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_parallel(&mut c);
    emit_trajectory_point(&c);
}
