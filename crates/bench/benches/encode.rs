//! Criterion: full-stripe encode throughput for every code, all backends —
//! the naive equation interpreter, the compiled `XorProgram` schedule
//! (from the global schedule cache), the multi-stripe bulk path
//! (`bulk_fused`, measured steady-state in place on an 8-stripe batch),
//! and the GF(2) bit-matrix — plus a `BENCH_encode.json` trajectory point
//! comparing naive vs compiled.
//!
//! `DCODE_BENCH_FAST=1` (used by the CI `bench-smoke` job) takes tiny
//! blocks and few samples: every code path in seconds instead of minutes.

use criterion::{BenchmarkId, Criterion, Throughput};
use dcode_baselines::registry::{build, EVALUATED_CODES};
use dcode_codec::{
    cache, encode_naive, encode_stripes, encode_with_matrix, generator_matrix, Stripe,
};
use std::io::Write;

const P: usize = 13;

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

fn payload(len: usize) -> Vec<u8> {
    let mut x = 0x9E3779B97F4A7C15u64;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let block = block_bytes();
    let mut group = c.benchmark_group("encode");
    if fast() {
        group.sample_size(5);
    } else {
        group.sample_size(41);
    }
    for &code in &EVALUATED_CODES {
        let layout = build(code, P).unwrap();
        let data = payload(layout.data_len() * block);
        let stripe = Stripe::from_data(&layout, block, &data);
        // The cached compile — what `encode` replays.
        let program = cache::global().encode_program(&layout);
        group.throughput(Throughput::Bytes((layout.data_len() * block) as u64));
        group.bench_with_input(BenchmarkId::new("naive", code.name()), &stripe, |b, s| {
            b.iter_batched(
                || s.clone(),
                |mut s| encode_naive(&layout, &mut s),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(
            BenchmarkId::new("compiled", code.name()),
            &stripe,
            |b, s| {
                b.iter_batched(
                    || s.clone(),
                    |mut s| program.run(&mut s),
                    criterion::BatchSize::LargeInput,
                );
            },
        );
        // The bulk path on an 8-stripe batch, in place: encode only
        // overwrites parity, so re-encoding the same batch each iteration
        // is idempotent and measures the steady-state replay rather than
        // per-iteration clone eviction. Throughput is per batch
        // (8 × the single-stripe byte count).
        const BULK: usize = 8;
        group.throughput(Throughput::Bytes((layout.data_len() * block * BULK) as u64));
        group.bench_function(BenchmarkId::new("bulk_fused", code.name()), |b| {
            let mut ss: Vec<Stripe> = (0..BULK).map(|_| stripe.clone()).collect();
            b.iter(|| encode_stripes(&layout, &mut ss, 1));
        });
        group.throughput(Throughput::Bytes((layout.data_len() * block) as u64));
        let matrix = generator_matrix(&layout);
        group.bench_with_input(
            BenchmarkId::new("bitmatrix", code.name()),
            &stripe,
            |b, s| {
                b.iter_batched(
                    || s.clone(),
                    |mut s| encode_with_matrix(&layout, &matrix, &mut s),
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

/// Serialize the encode measurements as one JSON trajectory point at the
/// repository root (`BENCH_encode.json`), including the compiled-vs-naive
/// speedup per code.
fn emit_trajectory_point(c: &Criterion) {
    let results = c.results();
    let gib = |median_ns: f64, bytes: u64| -> f64 {
        if median_ns <= 0.0 {
            return 0.0;
        }
        bytes as f64 / median_ns * 1e9 / (1024.0 * 1024.0 * 1024.0)
    };
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
    let mut speedups = String::new();
    for &code in &EVALUATED_CODES {
        let find = |backend: &str| {
            results
                .iter()
                .find(|r| r.id == format!("encode/{}/{}", backend, code.name()))
                .map(|r| r.median_ns)
        };
        if let (Some(naive), Some(compiled)) = (find("naive"), find("compiled")) {
            if compiled > 0.0 {
                speedups.push_str(&format!(
                    "    {{\"code\": \"{}\", \"speedup\": {:.3}}},\n",
                    code.name(),
                    naive / compiled
                ));
            }
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"encode\",\n  \"p\": {P},\n  \"block_bytes\": {},\n  \
         \"host_parallelism\": {},\n  \"results\": [\n{}  ],\n  \"compiled_vs_naive\": [\n{}  ]\n}}\n",
        block_bytes(),
        minipool::host_parallelism(),
        entries.trim_end_matches(",\n").to_string() + "\n",
        speedups.trim_end_matches(",\n").to_string() + "\n",
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_encode.json");
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_encode(&mut c);
    emit_trajectory_point(&c);
}
