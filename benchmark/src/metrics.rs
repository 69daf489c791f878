//! The benchmark's metric names and units — the same list `BENCHMARK.json`
//! carries (`run --check` asserts the two agree) — and the [`Report`] a
//! workload fills and prints.
//!
//! Every workload prints every end-to-end metric with tracing off and
//! every per-layer metric with tracing on. A per-layer metric whose layer
//! is not on a workload's path reads 0 there.

use crate::array::StatsDelta;
use crate::gen::Tally;
use crate::trace::RootTotals;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

pub const WORKLOADS: [&str; 3] = [
    "kv_small_mixed",
    "kv_large_stream",
    "array_degraded_rebuild",
];

/// What a user of the stack sees; measured with tracing off, and measured
/// the same way on every workload: puts and gets are healthy-array puts and
/// gets of the workload's values, the last three come from the failure
/// cycle each run ends with.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("ops_per_s", "1/s"),
    def("put_p50_us", "us"),
    def("put_p99_us", "us"),
    def("get_p50_us", "us"),
    def("get_p99_us", "us"),
    def("flushes_per_put", "count"),
    def("device_bytes_per_user_byte", "B/B"),
    def("degraded1_get_p50_us", "us"),
    def("degraded2_get_p50_us", "us"),
    def("rebuild_mib_s", "MiB/s"),
    def("rss_peak_mib", "MiB"),
];

/// One layer each; measured in the traced pass.
pub const PER_LAYER: &[Def] = &[
    def("client.put_mean_us", "us"),
    def("client.get_mean_us", "us"),
    def("server.put_wire_us", "us"),
    def("server.get_wire_us", "us"),
    def("server.put_queue_wait_us", "us"),
    def("server.get_queue_wait_us", "us"),
    def("server.protocol_codec_us", "us"),
    def("server.busy_frac", "ratio"),
    def("objstore.upsert_span_us", "us"),
    def("objstore.get_span_us", "us"),
    def("objstore.upsert_self_us", "us"),
    def("objstore.get_self_us", "us"),
    def("objstore.array_writes_per_put", "count"),
    def("objstore.index_bytes_per_put", "B"),
    def("objstore.array_reads_per_get", "count"),
    def("array.put_self_us", "us"),
    def("array.get_self_us", "us"),
    def("array.write_call_self_us", "us"),
    def("array.read_call_self_us", "us"),
    def("array.element_reads_per_put", "count"),
    def("array.element_writes_per_put", "count"),
    def("array.journal_records_per_put", "count"),
    def("array.journal_retires_per_put", "count"),
    def("array.retries", "count"),
    def("array.degraded_reads_per_get", "count"),
    def("array.degraded_get_self_us", "us"),
    def("array.rebuild_block_us", "us"),
    def("array.rebuild_reads_per_block", "count"),
    def("array.schedule_hit_rate", "ratio"),
    def("array.crc_est_us_per_put", "us"),
    def("array.encode_est_us_per_put", "us"),
    def("array.other_us_per_put", "us"),
    def("backend.reads_per_put", "count"),
    def("backend.writes_per_put", "count"),
    def("backend.flushes_per_put", "count"),
    def("backend.reads_per_get", "count"),
    def("backend.bytes_written_per_user_byte", "B/B"),
    def("backend.put_busy_us", "us"),
    def("backend.get_busy_us", "us"),
    def("backend.crc32_block_us", "us"),
    def("codec.encode_stripe_us", "us"),
    def("codec.encode_level_gib_s", "GiB/s"),
    def("codec.encode_fused_gib_s", "GiB/s"),
    def("codec.recover1_gib_s", "GiB/s"),
    def("codec.recover2_gib_s", "GiB/s"),
    def("codec.xor_stream_gib_s", "GiB/s"),
    def("codec.memcpy_gib_s", "GiB/s"),
    def("codec.fused_pct_of_xor_stream", "%"),
    def("codec.xors_per_data_element", "count"),
    def("codec.schedule_compile_ms", "ms"),
    def("codec.tile_calibrate_ms", "ms"),
    def("recovery.plan_us", "us"),
    def("recovery.reads_per_lost_element", "count"),
    def("recovery.optimal_reads_per_block", "count"),
    def("trace.overhead_frac", "ratio"),
];

/// What one run of one workload measured.
#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    values: Vec<(&'static str, f64, Option<usize>)>,
    details: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value, None));
    }

    /// A statistic over `samples` samples; the count is printed with it.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.push((name, value, Some(samples)));
    }

    /// `name` = the `q`-quantile per segment, median over the segments.
    pub fn set_percentile(&mut self, name: &'static str, segments: &mut [&mut Vec<f64>], q: f64) {
        let (value, samples) = crate::stats::segment_percentile(segments, q);
        self.set_n(name, value, samples);
    }

    /// `put_p50_us`/`put_p99_us` and `get_p50_us`/`get_p99_us` from each
    /// segment's healthy put and get latencies.
    pub fn set_latencies(&mut self, put: &mut [&mut Vec<f64>], get: &mut [&mut Vec<f64>]) {
        self.set_percentile("put_p50_us", put, 0.50);
        self.set_percentile("put_p99_us", put, 0.99);
        self.set_percentile("get_p50_us", get, 0.50);
        self.set_percentile("get_p99_us", get, 0.99);
    }

    /// The per-layer metrics read off the spans below `objstore.upsert`
    /// roots (`put`) and healthy `objstore.get` roots (`get`).
    pub fn set_stack(&mut self, put: &RootTotals, get: &RootTotals) {
        let us = |t: &RootTotals, prefix| (t.dur_us(prefix), t.roots as usize);
        let (span, n) = us(put, "objstore.");
        self.set_n("objstore.upsert_span_us", span, n);
        let (span, n) = us(get, "objstore.");
        self.set_n("objstore.get_span_us", span, n);
        self.set("objstore.upsert_self_us", put.self_us("objstore."));
        self.set("objstore.get_self_us", get.self_us("objstore."));
        self.set(
            "objstore.array_writes_per_put",
            put.calls_per_root("array.write_elements"),
        );
        self.set(
            "objstore.array_reads_per_get",
            get.calls_per_root("array.read_elements"),
        );
        self.set("array.put_self_us", put.self_us("array."));
        self.set("array.get_self_us", get.self_us("array."));
        let per_call = |name: &str| {
            let (a, b) = (put.get(name), get.get(name));
            (a.self_ns + b.self_ns) as f64 / 1e3 / (a.calls + b.calls).max(1) as f64
        };
        self.set("array.write_call_self_us", per_call("array.write_elements"));
        self.set("array.read_call_self_us", per_call("array.read_elements"));
        self.set(
            "backend.reads_per_put",
            put.calls_per_root("backend.read_block"),
        );
        self.set(
            "backend.writes_per_put",
            put.calls_per_root("backend.write_block"),
        );
        self.set(
            "backend.flushes_per_put",
            put.calls_per_root("backend.flush"),
        );
        self.set(
            "backend.reads_per_get",
            get.calls_per_root("backend.read_block"),
        );
        self.set("backend.put_busy_us", put.dur_us("backend."));
        self.set("backend.get_busy_us", get.dur_us("backend."));
        for (op, t) in [("put", put), ("get", get)] {
            self.detail(format!(
                "{op}: objstore {:.1} + array {:.1} + backend {:.1} us = span mean {:.1} us",
                t.self_us("objstore."),
                t.self_us("array."),
                t.dur_us("backend."),
                t.dur_us("objstore."),
            ));
        }
    }

    /// The per-layer metrics read off `ResilientStats` growth per op kind.
    pub fn set_stats(&mut self, on_put: &StatsDelta, on_get: &StatsDelta) {
        self.set(
            "array.element_reads_per_put",
            on_put.per_op(|s| s.element_reads),
        );
        self.set(
            "array.element_writes_per_put",
            on_put.per_op(|s| s.element_writes),
        );
        self.set(
            "array.journal_records_per_put",
            on_put.per_op(|s| s.journal_records),
        );
        self.set(
            "array.journal_retires_per_put",
            on_put.per_op(|s| s.journal_retires),
        );
        self.set(
            "array.retries",
            (on_put.stats.retries + on_get.stats.retries) as f64,
        );
    }

    /// What the CRC and encode probes explain of the array's self time in
    /// a put, and the remainder they do not.
    pub fn set_put_estimates(
        &mut self,
        put: &RootTotals,
        crc_us: f64,
        encode_us: f64,
        journal_records_per_put: f64,
    ) {
        let blocks =
            put.calls_per_root("backend.read_block") + put.calls_per_root("backend.write_block");
        let (crc_est, encode_est) = (blocks * crc_us, journal_records_per_put * encode_us);
        self.set("backend.crc32_block_us", crc_us);
        self.set("codec.encode_stripe_us", encode_us);
        self.set("array.crc_est_us_per_put", crc_est);
        self.set("array.encode_est_us_per_put", encode_est);
        self.set(
            "array.other_us_per_put",
            put.self_us("array.") - crc_est - encode_est,
        );
    }

    /// A line for the reader that is not a contract metric.
    pub fn detail(&mut self, line: String) {
        self.details.push(line);
    }

    /// Print every metric of `defs` by name with its unit, then the result
    /// line. Returns the process exit code: non-zero on any failed op.
    pub fn emit(&self, defs: &[Def], end_to_end: bool) -> i32 {
        for line in &self.details {
            println!("detail {line}");
        }
        let mut json = Vec::with_capacity(defs.len());
        for d in defs {
            let mut found = self.values.iter().filter(|(n, ..)| *n == d.name);
            let (value, samples) = match (found.next(), found.next()) {
                (Some(&(_, v, n)), None) => (v, n),
                (None, _) if !end_to_end => (0.0, None),
                (None, _) => panic!("{} was not measured", d.name),
                (Some(_), Some(_)) => panic!("{} was measured twice", d.name),
            };
            assert!(value.is_finite(), "{} = {value}", d.name);
            assert!(!end_to_end || value != 0.0, "{} is zero", d.name);
            let n = samples.map_or_else(String::new, |n| format!(" n={n}"));
            println!("metric {} = {value} {}{n}", d.name, d.unit);
            json.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        for (name, ..) in &self.values {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "{name} is not declared"
            );
        }
        let correct = self.tally.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted.max(1),
            self.tally.failed,
            json.join(", ")
        );
        i32::from(!correct)
    }
}
