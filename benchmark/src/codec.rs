//! The codec layers on their own — kernel, schedule optimizer, fused
//! executor — probed at the bulk shape ROADMAP item 5 tracks: D-Code
//! p = 13, 64 KiB blocks, a ring of 16 stripes (≈ 160 MiB, larger than any
//! cache) visited four stripes per call, one thread, no array.
//!
//! These layers are under 2% of a small put, so they are per-layer metrics
//! only: streaming 160 MiB through a shared host's memory swings 4–11%
//! between runs minutes apart and 20% over two hours, which no bound an
//! end-to-end metric may carry would hold.

use crate::gen::{fill_value, mix, Rng, Tally};
use crate::metrics::Report;
use crate::trace::{Span, Tracer};
use crate::{probe, Args};
use dcode_codec::{encode_stripes, recover_stripes, verify_parities, Stripe};
use dcode_core::layout::CodeLayout;
use dcode_core::Cell;
use std::hint::black_box;
use std::time::{Duration, Instant};

const RING: usize = 16;
const BATCH: usize = 4;
const GIB: f64 = (1u64 << 30) as f64;

struct Shape {
    layout: CodeLayout,
    block: usize,
}

impl Shape {
    fn data_bytes(&self) -> usize {
        self.layout.data_len() * self.block
    }

    /// The fixed double-column erasure of this seed.
    fn erased(&self, seed: u64) -> [usize; 2] {
        let disks = self.layout.disks();
        let a = (mix(seed, 0xe7a5, 0) % disks as u64) as usize;
        let gap = 1 + (mix(seed, 0xe7a5, 1) % (disks as u64 - 1)) as usize;
        let b = (a + gap) % disks;
        [a.min(b), a.max(b)]
    }

    /// Seeded data in every stripe, parities encoded.
    fn ring(&self, seed: u64) -> Vec<Stripe> {
        let mut data = Vec::new();
        let mut stripes: Vec<Stripe> = (0..RING)
            .map(|s| {
                fill_value(&mut data, seed, s as u64, 0, self.data_bytes());
                Stripe::from_data(&self.layout, self.block, &data)
            })
            .collect();
        encode_stripes(&self.layout, &mut stripes, 1);
        stripes
    }

    /// Change eight bytes of one data block per stripe, so the next encode
    /// has something new to get right.
    fn perturb(&self, rng: &mut Rng, stripes: &mut [Stripe]) {
        for stripe in stripes {
            let cell = self
                .layout
                .logical_to_cell(rng.below(self.layout.data_len()));
            let at = rng.below(self.block / 8) * 8;
            for (byte, nonce) in stripe.block_mut(cell)[at..at + 8]
                .iter_mut()
                .zip(rng.next_u64().to_le_bytes())
            {
                *byte ^= nonce;
            }
        }
    }

    fn column(&self, stripe: &Stripe, col: usize) -> Vec<u8> {
        (0..self.layout.rows())
            .flat_map(|row| stripe.block(Cell::new(row, col)).iter().copied())
            .collect()
    }

    /// Encode four-stripe batches around the ring for `duration`; one stripe
    /// of every fourth call is parity-checked outside the timer. Returns µs
    /// per call.
    fn encode_phase(
        &self,
        stripes: &mut [Stripe],
        rng: &mut Rng,
        duration: Duration,
        tracer: Option<&Tracer>,
        tally: &mut Tally,
    ) -> Vec<f64> {
        let mut samples = Vec::new();
        let until = Instant::now() + duration;
        while Instant::now() < until {
            let call = samples.len();
            let batch = &mut stripes[(call * BATCH) % RING..][..BATCH];
            self.perturb(rng, batch);
            let started = Instant::now();
            match tracer {
                Some(t) => t.span("codec.encode_stripes", || {
                    encode_stripes(&self.layout, batch, 1)
                }),
                None => encode_stripes(&self.layout, batch, 1),
            }
            samples.push(crate::micros_since(started));
            if call % 4 == 0 {
                tally.record(verify_parities(&self.layout, &batch[(call / 4) % BATCH]));
            }
        }
        samples
    }

    /// Erase `cols` of a four-stripe batch, recover, and compare one
    /// stripe's recovered columns with the originals. Returns µs per call.
    fn recover_phase(
        &self,
        stripes: &mut [Stripe],
        cols: &[usize],
        duration: Duration,
        tally: &mut Tally,
    ) -> Vec<f64> {
        let originals: Vec<Vec<Vec<u8>>> = stripes
            .iter()
            .map(|s| cols.iter().map(|&c| self.column(s, c)).collect())
            .collect();
        let mut samples = Vec::new();
        let until = Instant::now() + duration;
        while Instant::now() < until {
            let call = samples.len();
            let first = (call * BATCH) % RING;
            let batch = &mut stripes[first..first + BATCH];
            for stripe in batch.iter_mut() {
                stripe.erase_columns(cols);
            }
            let started = Instant::now();
            let recovered = recover_stripes(&self.layout, cols, batch, 1);
            samples.push(crate::micros_since(started));
            let check = call % BATCH;
            let same = cols
                .iter()
                .zip(&originals[first + check])
                .all(|(&c, original)| self.column(&batch[check], c) == *original);
            tally.record(recovered.is_ok() && same);
        }
        samples
    }
}

fn gib_s(bytes_per_call: usize, samples_us: &[f64]) -> f64 {
    bytes_per_call as f64 * samples_us.len() as f64 / GIB / (samples_us.iter().sum::<f64>() / 1e6)
}

/// The codec layers one by one, beside their roofline. Returns the spans of
/// the traced encode calls.
pub fn probes(report: &mut Report, args: &Args) -> Vec<Span> {
    let shape = Shape {
        layout: dcode_core::dcode::dcode(13).expect("13 is prime"),
        block: if args.smoke { 4 * 1024 } else { 64 * 1024 },
    };
    let mut stripes = shape.ring(args.seed);
    let mut rng = Rng::new(mix(args.seed, 0xc0de, 0));
    let part = args.timed(0.05);
    let ring_data = RING * shape.data_bytes();
    let call_data = BATCH * shape.data_bytes();

    // Level executor: one stripe at a time through the cached program.
    let level_us = probe::mean_us(part, || {
        for stripe in &mut stripes {
            dcode_codec::encode(&shape.layout, black_box(stripe));
        }
    });
    report.set(
        "codec.encode_level_gib_s",
        ring_data as f64 / GIB / (level_us / 1e6),
    );

    // Fused executor, untraced then traced: the cost of a span per call.
    let tracer = Tracer::new();
    tracer.set_enabled(true);
    let tally = &mut report.tally;
    let base = shape.encode_phase(&mut stripes, &mut rng, part, None, tally);
    let traced = shape.encode_phase(&mut stripes, &mut rng, part, Some(&tracer), tally);
    let fused = gib_s(call_data, &base);

    let cols = shape.erased(args.seed);
    let column_bytes = BATCH * shape.layout.rows() * shape.block;
    let one = shape.recover_phase(&mut stripes, &cols[..1], part, tally);
    let two = shape.recover_phase(&mut stripes, &cols, part, tally);
    report.detail(format!(
        "codec encode_stripes traced {:.3} GiB/s, untraced {fused:.3} GiB/s",
        gib_s(call_data, &traced)
    ));
    report.set_n("codec.encode_fused_gib_s", fused, base.len());
    report.set_n("codec.recover1_gib_s", gib_s(column_bytes, &one), one.len());
    report.set_n(
        "codec.recover2_gib_s",
        gib_s(2 * column_bytes, &two),
        two.len(),
    );

    // Roofline: the same data bytes through one XOR stream and one copy.
    let mut acc = vec![0u8; shape.block];
    let data_cells = shape.layout.data_cells();
    let xor_us = probe::mean_us(part, || {
        for stripe in &stripes {
            for &cell in data_cells {
                dcode_codec::xor::xor_into(&mut acc, stripe.block(cell));
            }
        }
        black_box(&mut acc);
    });
    let copy_us = probe::mean_us(part, || {
        for stripe in &stripes {
            for &cell in data_cells {
                acc.copy_from_slice(stripe.block(cell));
                black_box(&mut acc);
            }
        }
    });
    let xor_stream = ring_data as f64 / GIB / (xor_us / 1e6);
    report.set("codec.xor_stream_gib_s", xor_stream);
    report.set(
        "codec.memcpy_gib_s",
        ring_data as f64 / GIB / (copy_us / 1e6),
    );
    report.set("codec.fused_pct_of_xor_stream", 100.0 * fused / xor_stream);
    tracer.take()
}
