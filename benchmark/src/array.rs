//! The in-process store — `ObjectStore` over a journaled `ResilientArray`
//! with two hot spares — and the two things run on it:
//!
//! * the **failure cycle** every workload ends with: fail a slot → verified
//!   gets → fail a second slot → verified gets → rebuild both onto the
//!   spares → verify every object + a clean scrub. This is the paper's
//!   headline (degraded-read and recovery cost). The server has no fail or
//!   rebuild command, so the key-value workloads run it on one store shaped
//!   like a shard and holding their values;
//! * `array_degraded_rebuild`: healthy puts and gets on one thread, no
//!   sockets, then the cycle, on a store large enough that the rebuild and
//!   the recovery planner dominate.

use crate::gen::{fill_value, mix, Ledger, OpKind, OpStream, Rng, Tally};
use crate::metrics::Report;
use crate::trace::{rollup, Tracer};
use crate::wrap::{CountSnapshot, CountingBackend, Counts, TracedBackend, TracedIo};
use crate::{codec, probe, stats, Args};
use dcode_array::{
    journal_blocks_per_disk, ElementIo, ObjectStore, ResilientArray, ResilientStats, RetryPolicy,
    RotationScheme,
};
use dcode_core::layout::CodeLayout;
use dcode_faults::{DiskBackend, MemBackend};
use dcode_server::ShardConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Blocks reconstructed per `rebuild_step` call.
const STEP_BLOCKS: usize = 8;
/// Upserts among the healthy ops of `array_degraded_rebuild`. An upsert
/// costs about fifty gets, so puts still take most of the phase's time.
const PUT_PERCENT: usize = 20;

/// The shape of one store: the array's geometry (retry policy, rotation and
/// fail threshold are the shard defaults) and the objects it holds.
pub struct StoreShape {
    layout: CodeLayout,
    block: usize,
    stripes: usize,
    meta_elements: usize,
    object_len: usize,
    objects: usize,
    /// Failure cycles per store; each consumes two hot spares.
    cycles: usize,
}

impl StoreShape {
    /// `array_degraded_rebuild`: D-Code p = 7, 4 KiB blocks, 1024 stripes,
    /// 600 objects of 64 KiB (under 70% of the capacity). Set-up time grows
    /// with the object count, rebuild time with the stripe count.
    pub fn array_workload(args: &Args) -> Self {
        StoreShape {
            layout: dcode_core::dcode::dcode(7).expect("7 is prime"),
            block: 4096,
            stripes: if args.smoke { 96 } else { 1024 },
            meta_elements: 8,
            object_len: 64 * 1024,
            objects: if args.smoke { 100 } else { 600 },
            cycles: 1,
        }
    }

    /// One of the server's shards, holding `objects` values of `object_len`.
    /// Rebuilding a slot of a 64-stripe shard lasts a twentieth of a second,
    /// so three cycles run on each store, six hot spares as in the issue.
    pub fn like_shard(shard: &ShardConfig, object_len: usize, objects: usize) -> Self {
        StoreShape {
            layout: shard.layout.clone(),
            block: shard.block_size,
            stripes: shard.stripes,
            meta_elements: shard.meta_elements,
            object_len,
            objects,
            cycles: 3,
        }
    }

    fn backend(&self) -> MemBackend {
        let blocks =
            self.stripes * self.layout.rows() + journal_blocks_per_disk(&self.layout, self.block);
        MemBackend::new(self.layout.disks() + 2 * self.cycles, blocks, self.block)
    }

    fn array<B: DiskBackend>(&self, backend: B) -> ResilientArray<B> {
        ResilientArray::format_journaled(
            self.layout.clone(),
            self.block,
            self.stripes,
            RotationScheme::PerStripe,
            backend,
            RetryPolicy::default(),
            8,
        )
    }

    /// Format a store on `io` and store every object at version 0.
    fn filled_store<D: ElementIo>(&self, io: D, seed: u64) -> ObjectStore<D> {
        let mut store = ObjectStore::format(io, self.meta_elements).expect("format store");
        let mut value = Vec::new();
        for object in 0..self.objects {
            fill_value(&mut value, seed, object as u64, 0, self.object_len);
            store.put(&name(object), &value).expect("fill");
        }
        store
    }

    /// The two slots failed in `cycle`; they rotate with the seed.
    fn failed_slots(&self, seed: u64, cycle: usize) -> (usize, usize) {
        let disks = self.layout.disks();
        let a = (seed as usize % disks + 2 * cycle) % disks;
        (a, (a + 1) % disks)
    }
}

fn name(object: usize) -> String {
    format!("o{object}")
}

/// How the phases reach the `ResilientArray` under the store's I/O seam
/// (directly when untraced, through `TracedIo` when traced).
trait Reach: ElementIo {
    type Backend: DiskBackend;
    fn resilient(&mut self) -> &mut ResilientArray<Self::Backend>;
}

impl<B: DiskBackend> Reach for ResilientArray<B> {
    type Backend = B;
    fn resilient(&mut self) -> &mut ResilientArray<B> {
        self
    }
}

impl<B: DiskBackend> Reach for TracedIo<ResilientArray<B>> {
    type Backend = B;
    fn resilient(&mut self) -> &mut ResilientArray<B> {
        self.inner_mut()
    }
}

/// `ResilientStats` growth over the ops of one kind.
#[derive(Default)]
pub struct StatsDelta {
    ops: u64,
    pub stats: ResilientStats,
}

impl StatsDelta {
    pub fn add(&mut self, after: &ResilientStats, before: &ResilientStats) {
        self.ops += 1;
        let s = &mut self.stats;
        s.element_reads += after.element_reads - before.element_reads;
        s.element_writes += after.element_writes - before.element_writes;
        s.journal_records += after.journal_records - before.journal_records;
        s.journal_retires += after.journal_retires - before.journal_retires;
        s.retries += after.retries - before.retries;
    }

    pub fn per_op(&self, field: fn(&ResilientStats) -> u64) -> f64 {
        field(&self.stats) as f64 / self.ops.max(1) as f64
    }
}

/// Latencies (µs) and counts of one segment.
#[derive(Default)]
pub struct Phases {
    put_us: Vec<f64>,
    get_us: Vec<f64>,
    degraded1_us: Vec<f64>,
    degraded2_us: Vec<f64>,
    /// Every `rebuild_step` call: the first slot rebuilds through a double
    /// erasure, the second through a single one.
    rebuild_us: Vec<f64>,
    rebuilt_bytes: u64,
    degraded_reads: u64,
    pub tally: Tally,
}

impl Phases {
    fn rebuild_mib_s(&self) -> f64 {
        let seconds = self.rebuild_us.iter().sum::<f64>() / 1e6;
        self.rebuilt_bytes as f64 / (1 << 20) as f64 / seconds
    }

    /// Healthy ops per second of time spent inside the store: the generator
    /// and the comparisons run between the timed calls.
    fn ops_per_s(&self) -> f64 {
        let seconds = (self.put_us.iter().sum::<f64>() + self.get_us.iter().sum::<f64>()) / 1e6;
        (self.put_us.len() + self.get_us.len()) as f64 / seconds
    }

    fn forget_healthy_ops(&mut self) {
        self.put_us.clear();
        self.get_us.clear();
    }
}

fn each(segments: &mut [Phases], field: fn(&mut Phases) -> &mut Vec<f64>) -> Vec<&mut Vec<f64>> {
    segments.iter_mut().map(field).collect()
}

/// The failure cycle's end-to-end metrics, each the median over the
/// segments' cycles.
pub fn set_cycle_metrics(report: &mut Report, segments: &mut [Phases]) {
    report.set_percentile(
        "degraded1_get_p50_us",
        &mut each(segments, |p| &mut p.degraded1_us),
        0.50,
    );
    report.set_percentile(
        "degraded2_get_p50_us",
        &mut each(segments, |p| &mut p.degraded2_us),
        0.50,
    );
    let rates: Vec<f64> = segments.iter().map(Phases::rebuild_mib_s).collect();
    let steps = segments.iter().map(|p| p.rebuild_us.len()).sum();
    report.set_n("rebuild_mib_s", stats::median(&rates), steps);
}

struct Runner<'a, D: Reach> {
    store: &'a mut ObjectStore<D>,
    shape: &'a StoreShape,
    seed: u64,
    /// Picks the objects of the degraded gets.
    rng: Rng,
    /// The healthy ops.
    stream: OpStream,
    ledger: Ledger,
    value: Vec<u8>,
    tracer: Option<&'a Tracer>,
    /// `[put, get]` over the healthy ops; only the traced pass reads it.
    kinds: [StatsDelta; 2],
    out: Phases,
}

impl<D: Reach> Runner<'_, D> {
    /// One verified get of `object`; the comparison is outside the timer.
    fn get(&mut self, object: usize, span: &'static str) -> f64 {
        let version = self.ledger.acked(object);
        fill_value(
            &mut self.value,
            self.seed,
            object as u64,
            version,
            self.shape.object_len,
        );
        let name = name(object);
        let started = Instant::now();
        let store = &mut *self.store;
        let reply = match self.tracer {
            Some(t) => t.span(span, || store.get(&name)),
            None => store.get(&name),
        };
        let us = crate::micros_since(started);
        self.out
            .tally
            .record(reply.is_ok_and(|bytes| bytes == self.value));
        us
    }

    /// One upsert of `object` at its next version; acknowledged on `Ok`.
    fn put(&mut self, object: usize) -> f64 {
        let version = self.ledger.acked(object) + 1;
        fill_value(
            &mut self.value,
            self.seed,
            object as u64,
            version,
            self.shape.object_len,
        );
        let name = name(object);
        let started = Instant::now();
        let (store, value) = (&mut *self.store, &self.value);
        let reply = match self.tracer {
            Some(t) => t.span("objstore.upsert", || store.upsert(&name, value)),
            None => store.upsert(&name, value),
        };
        let us = crate::micros_since(started);
        if reply.is_ok() {
            self.ledger.ack(object, version);
        }
        self.out.tally.record(reply.is_ok());
        us
    }

    /// Verified gets of uniformly chosen objects for `duration`.
    fn gets_for(&mut self, duration: Duration, span: &'static str) -> Vec<f64> {
        let mut samples = Vec::new();
        let until = Instant::now() + duration;
        while Instant::now() < until {
            let object = self.rng.below(self.shape.objects);
            samples.push(self.get(object, span));
        }
        samples
    }

    /// Healthy puts and gets of uniformly chosen objects for `duration`.
    fn traffic(&mut self, duration: Duration) {
        let until = Instant::now() + duration;
        while Instant::now() < until {
            let (kind, object) = self.stream.next_op();
            let put = kind == OpKind::Put;
            let before = self.array().stats().clone();
            if put {
                let us = self.put(object);
                self.out.put_us.push(us);
            } else {
                let us = self.get(object, "objstore.get");
                self.out.get_us.push(us);
            }
            let after = self.store.array_mut().resilient().stats();
            self.kinds[usize::from(!put)].add(after, &before);
        }
    }

    /// The store's failure cycles, `degraded` of gets in each degraded state
    /// in all.
    fn cycles(&mut self, segment: usize, degraded: Duration) {
        let cycles = self.shape.cycles;
        for cycle in 0..cycles {
            self.cycle(segment * cycles + cycle, degraded / cycles as u32);
        }
    }

    /// One failure cycle: fail a → gets → fail b → gets → rebuild both →
    /// verify everything + clean scrub.
    fn cycle(&mut self, cycle: usize, degraded: Duration) {
        let (a, b) = self.shape.failed_slots(self.seed, cycle);
        let reads_before = self.array().stats().degraded_reads;
        self.array().fail_disk(a).expect("slot a was healthy");
        let gets = self.gets_for(degraded, "objstore.get.degraded1");
        self.out.degraded1_us.extend(gets);
        self.array().fail_disk(b).expect("slot b was healthy");
        let gets = self.gets_for(degraded, "objstore.get.degraded2");
        self.out.degraded2_us.extend(gets);
        self.out.degraded_reads += self.array().stats().degraded_reads - reads_before;

        // Slot a rebuilds first; its completion chains the second spare
        // onto slot b.
        loop {
            let started = Instant::now();
            let tracer = self.tracer;
            let array = self.array();
            let done = match tracer {
                Some(t) => t.span("array.rebuild_step", || array.rebuild_step(STEP_BLOCKS)),
                None => array.rebuild_step(STEP_BLOCKS),
            }
            .expect("rebuild step");
            self.out.rebuild_us.push(crate::micros_since(started));
            if done {
                break;
            }
        }
        self.out.rebuilt_bytes = self.array().stats().rebuilt_blocks * self.shape.block as u64;

        // Verification is not a measured layer: keep it out of the trace.
        let traced = self.tracer.map(|t| t.set_enabled(false));
        let healthy_again = self.array().failed_slots().is_empty();
        self.out.tally.record(healthy_again);
        for object in 0..self.shape.objects {
            self.get(object, "");
        }
        let scrub = self.array().scrub_pass().expect("scrub");
        self.out.tally.record(
            scrub.parity_checked == self.shape.stripes as u64
                && scrub.parity_mismatches == 0
                && scrub.checksum_catches == 0
                && scrub.degraded_reads == 0,
        );
        if let (Some(t), Some(was)) = (self.tracer, traced) {
            t.set_enabled(was);
        }
    }

    fn array(&mut self) -> &mut ResilientArray<D::Backend> {
        self.store.array_mut().resilient()
    }
}

/// `seed` generated the stored values; `picks` chooses the ops.
fn runner<'a, D: Reach>(
    store: &'a mut ObjectStore<D>,
    shape: &'a StoreShape,
    seed: u64,
    picks: u64,
    tracer: Option<&'a Tracer>,
) -> Runner<'a, D> {
    Runner {
        store,
        shape,
        seed,
        rng: Rng::new(picks),
        stream: OpStream::new(mix(picks, 0x0b5, 0), shape.objects, PUT_PERCENT),
        ledger: Ledger::new(shape.objects),
        value: Vec::new(),
        tracer,
        kinds: Default::default(),
        out: Phases::default(),
    }
}

/// The failure cycles on a store set up afresh, `degraded` of gets in each
/// degraded state. Returns the store's set-up seconds and what was measured.
pub fn cycles_on_fresh_store(
    shape: &StoreShape,
    seed: u64,
    segment: usize,
    degraded: Duration,
) -> (f64, Phases) {
    let (setup_s, mut store) =
        crate::timed_setup(|| shape.filled_store(shape.array(shape.backend()), seed));
    let picks = mix(seed, 0xc1c1e, segment as u64);
    let mut r = runner(&mut store, shape, seed, picks, None);
    r.cycles(segment, degraded);
    (setup_s, r.out)
}

/// The untraced run: every end-to-end metric. Each segment runs the healthy
/// ops and one failure cycle on a store set up afresh.
pub fn run(shape: &StoreShape, args: &Args) -> Report {
    let mut report = Report::default();
    let counts = Arc::new(Counts::default());
    let mut setups = Vec::new();
    let mut device = CountSnapshot::default();
    let mut segments = Vec::new();
    for segment in 0..args.segments() {
        let (setup_s, mut store) = crate::timed_setup(|| {
            let backend = CountingBackend::new(shape.backend(), Arc::clone(&counts));
            shape.filled_store(shape.array(backend), args.seed)
        });
        setups.push(setup_s);
        let picks = mix(args.seed, 0xa77a, segment as u64);
        let mut r = runner(&mut store, shape, args.seed, picks, None);
        r.traffic(args.segment_warmup());
        r.out.forget_healthy_ops();
        // The rebuild is bounded by work, not time: about a quarter of the
        // measuring time at this geometry; the healthy ops and the degraded
        // gets share the rest.
        let mark = counts.snapshot();
        r.traffic(args.segment_timed(0.35));
        device = device + (counts.snapshot() - mark);
        r.cycles(segment, args.segment_timed(0.2));
        report.tally.merge(r.out.tally);
        segments.push(r.out);
        if segment == 0 {
            report.set("rss_peak_mib", crate::rss_peak_mib());
        }
    }

    // Every put in the window was acknowledged unless it is counted failed,
    // and gets neither write nor flush on a healthy array.
    let puts: usize = segments.iter().map(|p| p.put_us.len()).sum();
    let gets: usize = segments.iter().map(|p| p.get_us.len()).sum();
    let rates: Vec<f64> = segments.iter().map(Phases::ops_per_s).collect();
    report.set("setup_s", stats::median(&setups));
    report.set_n("ops_per_s", stats::median(&rates), puts + gets);
    let (mut put, mut get): (Vec<_>, Vec<_>) = segments
        .iter_mut()
        .map(|p| (&mut p.put_us, &mut p.get_us))
        .unzip();
    report.set_latencies(&mut put, &mut get);
    report.set("flushes_per_put", device.flushes as f64 / puts as f64);
    report.set(
        "device_bytes_per_user_byte",
        (device.writes as usize * shape.block) as f64 / (puts * shape.object_len) as f64,
    );
    set_cycle_metrics(&mut report, &mut segments);
    report
}

/// The traced run: every per-layer metric this workload's path has, then
/// the codec probes at the bulk shape.
pub fn run_traced(shape: &StoreShape, args: &Args, workload: &str) -> Report {
    let mut report = Report::default();
    report.set("codec.tile_calibrate_ms", probe::tile_calibrate_ms());

    // Untraced healthy ops, for the tracing overhead.
    let counts = Arc::new(Counts::default());
    let backend = CountingBackend::new(shape.backend(), Arc::clone(&counts));
    let mut plain = shape.filled_store(shape.array(backend), args.seed);
    let picks = mix(args.seed, 0xa77a, 0);
    let mut r = runner(&mut plain, shape, args.seed, picks, None);
    r.traffic(args.timed(0.03));
    r.out.forget_healthy_ops();
    r.traffic(args.timed(0.12));
    let base_rate = r.out.ops_per_s();
    report.tally.merge(r.out.tally);
    drop(plain);

    let tracer = Tracer::new();
    let array = shape.array(TracedBackend::new(shape.backend(), tracer.clone()));
    let io = TracedIo::new(array, tracer.clone(), shape.meta_elements);
    let mut store = shape.filled_store(io, args.seed);
    let mut r = runner(&mut store, shape, args.seed, picks, Some(&tracer));
    r.traffic(args.timed(0.03));
    r.out.forget_healthy_ops();
    r.kinds = Default::default();
    r.store.array_mut().index_bytes = 0;
    tracer.set_enabled(true);
    r.traffic(args.timed(0.12));
    r.cycles(0, args.timed(0.1));
    tracer.set_enabled(false);
    let (p, [on_put, on_get]) = (r.out, r.kinds);
    report.tally.merge(p.tally);
    let index_bytes = store.array().index_bytes;
    let cache = store.array().inner().schedule_stats();
    drop(store);
    let spans = tracer.take();
    let roll = rollup(&spans);
    let root = |name: &str| roll.get(name).cloned().unwrap_or_default();
    let (put, healthy) = (root("objstore.upsert"), root("objstore.get"));
    let mut degraded = root("objstore.get.degraded1");
    let d2 = root("objstore.get.degraded2");
    degraded.roots += d2.roots;
    for (name, t) in d2.by_name {
        let into = degraded.by_name.entry(name).or_default();
        into.calls += t.calls;
        into.dur_ns += t.dur_ns;
        into.self_ns += t.self_ns;
    }
    let rebuild = root("array.rebuild_step");

    report.set_stack(&put, &healthy);
    report.set_stats(&on_put, &on_get);
    report.set(
        "objstore.index_bytes_per_put",
        index_bytes as f64 / put.roots.max(1) as f64,
    );
    report.set(
        "backend.bytes_written_per_user_byte",
        put.calls_per_root("backend.write_block") * shape.block as f64 / shape.object_len as f64,
    );
    let degraded_gets = p.degraded1_us.len() + p.degraded2_us.len();
    report.set(
        "array.degraded_reads_per_get",
        p.degraded_reads as f64 / degraded_gets.max(1) as f64,
    );
    report.set("array.degraded_get_self_us", degraded.self_us("array."));
    let blocks = (p.rebuilt_bytes / shape.block as u64).max(1) as f64;
    report.set(
        "array.rebuild_block_us",
        rebuild.get("array.rebuild_step").dur_ns as f64 / 1e3 / blocks,
    );
    let rebuild_reads = rebuild.get("backend.read_block").calls as f64 / blocks;
    report.set("array.rebuild_reads_per_block", rebuild_reads);
    report.set(
        "array.schedule_hit_rate",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );

    let budget = args.timed(0.02);
    let (a, b) = shape.failed_slots(args.seed, 0);
    let (plan_us, reads_per_lost) = probe::plan_recovery_cost(&shape.layout, &[a, b], budget);
    let optimal = dcode_recovery::optimal_rebuild(&shape.layout, a).read_count() as f64
        / shape.layout.rows() as f64;
    report.set("recovery.plan_us", plan_us);
    report.set("recovery.reads_per_lost_element", reads_per_lost);
    report.set("recovery.optimal_reads_per_block", optimal);
    report.set_put_estimates(
        &put,
        probe::crc32_block_us(shape.block, budget),
        probe::encode_stripe_us(&shape.layout, shape.block, budget),
        on_put.per_op(|s| s.journal_records),
    );
    report.set(
        "codec.xors_per_data_element",
        probe::xors_per_data_element(&shape.layout),
    );
    report.set(
        "codec.schedule_compile_ms",
        probe::schedule_compile_ms(&shape.layout),
    );
    report.set("trace.overhead_frac", 1.0 - p.ops_per_s() / base_rate);
    report.detail(format!(
        "rebuild reads per block {rebuild_reads:.3} beside the optimal single-failure {optimal:.3}"
    ));

    let codec_spans = codec::probes(&mut report, args);
    crate::write_trace(workload, &[spans, codec_spans]);
    report
}
