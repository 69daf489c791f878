//! Server-side metrics: lock-free latency histograms and operation
//! counters, rendered as the JSON document a `STAT` request returns.
//!
//! [`Histogram`] is the crate's one latency store. The shards record
//! every op into STAT's, and the load generator records its client-side
//! samples into two of its own, so both documents summarize through
//! [`Histogram::percentiles`] and one renderer, on one scale.
//!
//! The buckets are log-linear over microseconds: exact below 128 µs, then
//! 128 buckets per power of two, each at most 1/128 (0.78%) of its lower
//! bound wide, up to 2³² µs; larger samples clamp into the last bucket,
//! and `max_us` stays exact. That is 3,328 buckets (26 KiB) however many
//! samples arrive. Recording is one bucket index and four relaxed atomic
//! ops, so a server takes no lock per request.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bits of the value below its leading one that pick a bucket: 2⁷ = 128
/// buckets per power of two.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Samples at or above this clamp into the last bucket.
const CLAMP_US: u64 = u32::MAX as u64;
const BUCKETS: usize = bucket_of(CLAMP_US) + 1;

/// The bucket holding `us`: the value itself below 256; above, its top
/// eight bits, offset by 128 per doubling.
const fn bucket_of(us: u64) -> usize {
    let us = if us < CLAMP_US { us } else { CLAMP_US };
    // `| SUB` leaves the leading one of a value ≥ 128 where it is and
    // gives smaller ones a shift of 0.
    let shift = 63 - SUB_BITS - (us | SUB as u64).leading_zeros();
    shift as usize * SUB + (us >> shift) as usize
}

/// The largest sample bucket `i` holds; unbounded for the last one,
/// which takes every clamped sample.
fn bucket_upper(i: usize) -> u64 {
    if i == BUCKETS - 1 {
        return u64::MAX;
    }
    let shift = (i / SUB).saturating_sub(1);
    (((i - shift * SUB) as u64 + 1) << shift) - 1
}

/// A log-linear latency histogram in microseconds.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Wraps past 2⁶⁴ µs; a sample from a clock never gets there.
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Record one latency sample.
    pub fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// The summary of what was recorded so far. Each percentile is the
    /// upper bound of the bucket holding rank ⌈q·n⌉, capped at the
    /// observed max: at most 0.78% above the exact value of that rank.
    pub fn percentiles(&self) -> Percentiles {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return Percentiles::default();
        }
        let max = self.max_us.load(Ordering::Relaxed);
        let at = |q: f64| {
            #[allow(clippy::cast_sign_loss, clippy::cast_precision_loss)]
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, bucket) in self.buckets.iter().enumerate() {
                seen += bucket.load(Ordering::Relaxed);
                if seen >= rank {
                    return bucket_upper(i).min(max);
                }
            }
            max
        };
        Percentiles {
            count,
            mean: self.sum_us.load(Ordering::Relaxed) / count,
            p50: at(0.50),
            p99: at(0.99),
            p999: (count >= 1000).then(|| at(0.999)),
            max,
        }
    }
}

/// One histogram's summary, in microseconds: what each of STAT's
/// `latency_us` entries and `BENCH_server.json`'s `put_us`/`get_us` say.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Percentiles {
    /// Sample count.
    pub count: u64,
    /// ⌊sum / count⌋; 0 when empty.
    pub mean: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile — `None` (JSON `null`) below 1000 samples,
    /// where the tail rank collapses onto the max and reads as a real
    /// measurement when it is not one.
    pub p999: Option<u64>,
    /// Maximum, exact.
    pub max: u64,
}

impl Percentiles {
    /// The JSON object both documents embed.
    pub(crate) fn json(&self) -> String {
        let p999 = self
            .p999
            .map_or_else(|| "null".to_string(), |v| v.to_string());
        format!(
            "{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{p999},\"max_us\":{}}}",
            self.count, self.mean, self.p50, self.p99, self.max
        )
    }
}

/// Counters for every request outcome the front end can produce.
#[derive(Default)]
pub struct OpCounters {
    /// PUTs acknowledged.
    pub puts: AtomicU64,
    /// GETs that returned a value.
    pub gets: AtomicU64,
    /// DELETEs acknowledged.
    pub deletes: AtomicU64,
    /// Whole-server scrub passes served.
    pub scrubs: AtomicU64,
    /// STAT documents served.
    pub stats: AtomicU64,
    /// GET/DELETE misses.
    pub not_found: AtomicU64,
    /// Requests rejected with `Busy` by a shard with `queue_cap` ops admitted.
    pub busy: AtomicU64,
    /// Requests that failed (store error, malformed frame…).
    pub errors: AtomicU64,
}

/// One shared metrics sink for the whole server.
#[derive(Default)]
pub struct ServerMetrics {
    /// Outcome counters.
    pub ops: OpCounters,
    /// PUT latency, admission → shard completion (turn wait included).
    pub put_latency: Histogram,
    /// GET latency, admission → shard completion (turn wait included).
    pub get_latency: Histogram,
    /// DELETE latency, admission → shard completion (turn wait included).
    pub delete_latency: Histogram,
    /// SCRUB latency, request → all shards reported.
    pub scrub_latency: Histogram,
}

impl ServerMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        ServerMetrics::default()
    }

    fn counter(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    /// The `"ops"` and `"latency_us"` sections of the stat document.
    pub fn core_json(&self) -> String {
        let o = &self.ops;
        format!(
            "\"ops\":{{\"puts\":{},\"gets\":{},\"deletes\":{},\"scrubs\":{},\"stats\":{},\"not_found\":{},\"busy\":{},\"errors\":{}}},\
             \"latency_us\":{{\"put\":{},\"get\":{},\"delete\":{},\"scrub\":{}}}",
            Self::counter(&o.puts),
            Self::counter(&o.gets),
            Self::counter(&o.deletes),
            Self::counter(&o.scrubs),
            Self::counter(&o.stats),
            Self::counter(&o.not_found),
            Self::counter(&o.busy),
            Self::counter(&o.errors),
            self.put_latency.percentiles().json(),
            self.get_latency.percentiles().json(),
            self.delete_latency.percentiles().json(),
            self.scrub_latency.percentiles().json(),
        )
    }
}

/// Escape a string for embedding in a JSON document (quotes, backslashes,
/// control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The exact sample of rank ⌈q·n⌉, by sorting: the reference the
    /// buckets are held to.
    fn exact(sorted: &[u64], q: f64) -> u64 {
        #[allow(clippy::cast_sign_loss, clippy::cast_precision_loss)]
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Record `samples` and hold the summary to the sort: `count`, `sum`
    /// (wrapping, as the counter does) and `max` exact, and each
    /// percentile in the bucket of the exact value, at or above it, at
    /// most the max and, below the clamp, by no more than 1/128 of it.
    fn check_against_the_sort(samples: &[u64]) {
        let h = Histogram::new();
        samples.iter().for_each(|&us| h.record(us));
        let p = h.percentiles();
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let sum = samples.iter().fold(0u64, |a, &us| a.wrapping_add(us));
        let n = samples.len() as u64;
        assert_eq!(p.count, n);
        assert_eq!(h.sum_us.load(Ordering::Relaxed), sum);
        assert_eq!(p.mean, sum / n);
        assert_eq!(p.max, *sorted.last().unwrap());
        let quantiles = [(0.50, Some(p.p50)), (0.99, Some(p.p99)), (0.999, p.p999)];
        for (q, got) in quantiles {
            let want = exact(&sorted, q);
            let Some(got) = got else {
                assert!(n < 1000, "p999 missing at {n} samples");
                continue;
            };
            assert_eq!(bucket_of(got), bucket_of(want), "q {q}: {got} vs {want}");
            assert!((want..=p.max).contains(&got), "q {q}: {got} vs {want}");
            if want < CLAMP_US {
                assert!((got - want) * 128 <= want, "q {q}: {got} vs {want}");
            }
        }
        assert_eq!(p.p999.is_some(), n >= 1000);
    }

    /// Values below 128, both sides of a power of two from 2⁷ to 2³²,
    /// values past the clamp, and the extremes.
    struct Sample;

    impl Strategy for Sample {
        type Value = u64;
        fn generate(&self, rng: &mut TestRng) -> u64 {
            let e = (7u32..=32).generate(rng);
            let d = (1u64..=64).generate(rng);
            match (0u8..16).generate(rng) {
                0..=3 => (0u64..128).generate(rng),
                4..=7 => (1u64 << e) + d - 1,
                8..=11 => (1u64 << e) - d,
                12 | 13 => (0u64..1_000_000).generate(rng),
                14 => ((1u64 << 32)..=u64::MAX).generate(rng),
                _ => [0, u64::MAX][(d % 2) as usize],
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn percentiles_are_within_one_bucket_of_the_sort(
                samples in prop::collection::vec(Sample, 1..2500)) {
            check_against_the_sort(&samples);
        }
    }

    #[test]
    fn every_power_of_two_edge_is_within_one_bucket_of_the_sort() {
        let mut samples = vec![0, 1, 127, u64::MAX, 1 << 40];
        for e in 7..=32 {
            samples.extend([(1u64 << e) - 1, 1 << e, (1 << e) + 1]);
        }
        for len in 1..=samples.len() {
            check_against_the_sort(&samples[..len]);
        }
        // Enough copies for a p999.
        check_against_the_sort(&samples.repeat(13));
    }

    #[test]
    fn buckets_are_exact_below_128_then_at_most_a_128th_wide() {
        assert_eq!(BUCKETS, 3328);
        assert_eq!(BUCKETS * std::mem::size_of::<AtomicU64>(), 26 * 1024);
        let mut lower = 0u64;
        for i in 0..BUCKETS - 1 {
            let upper = bucket_upper(i);
            assert_eq!((bucket_of(lower), bucket_of(upper)), (i, i), "bucket {i}");
            if lower < 128 {
                assert_eq!(upper, lower);
            }
            assert!((upper - lower + 1) * 128 <= lower.max(128), "bucket {i}");
            lower = upper + 1;
        }
        // The last bucket is as wide as its neighbours, then takes the rest.
        assert_eq!((lower, bucket_of(lower)), (255 << 24, BUCKETS - 1));
        for us in [CLAMP_US, 1 << 32, u64::MAX] {
            assert_eq!(bucket_of(us), BUCKETS - 1);
        }
    }

    #[test]
    fn percentiles_bound_the_samples_within_one_bucket() {
        let h = Histogram::new();
        for us in [1u64, 2, 3, 300, 300, 300, 300, 300, 300, 5000] {
            h.record(us);
        }
        let p = h.percentiles();
        assert_eq!(p.count, 10);
        // 300 sits in [300, 301]: two microseconds wide.
        assert_eq!(p.p50, 301);
        // The top sample caps every high quantile at the observed max.
        assert_eq!(p.p99, 5000);
        assert_eq!(p.max, 5000);
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds_on_known_samples() {
        let h = Histogram::new();
        (1..=1000u64).for_each(|us| h.record(us));
        let p = h.percentiles();
        assert_eq!(p.count, 1000);
        assert_eq!(p.mean, 500);
        // Ranks 500, 990 and 999, each reported as its bucket's top.
        assert_eq!(p.p50, 501);
        assert_eq!(p.p99, 991);
        assert_eq!(p.p999, Some(999));
        assert_eq!(p.max, 1000);
    }

    #[test]
    fn p999_is_null_below_a_thousand_samples() {
        let h = Histogram::new();
        (1..=999u64).for_each(|us| h.record(us));
        let p = h.percentiles();
        assert_eq!(p.p999, None, "999 samples cannot resolve a p999");
        assert!(p.json().contains("\"p999_us\":null"), "{}", p.json());
        h.record(1000);
        let enough = h.percentiles().json();
        assert!(enough.contains("\"p999_us\":999"), "{enough}");
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let p = Histogram::new().percentiles();
        assert_eq!(p, Percentiles::default());
        assert_eq!(
            p.json(),
            "{\"count\":0,\"mean_us\":0,\"p50_us\":0,\"p99_us\":0,\"p999_us\":null,\"max_us\":0}"
        );
    }

    #[test]
    fn zero_and_huge_samples_do_not_panic() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let p = h.percentiles();
        assert_eq!(p.count, 2);
        assert_eq!((p.p50, p.p99, p.max), (0, u64::MAX, u64::MAX));
    }

    /// `benchmark/` reads a put's server-side mean as `count × mean_us`,
    /// so STAT's `mean_us` is ⌊sum / count⌋ exactly.
    #[test]
    fn stat_mean_is_the_floor_of_sum_over_count() {
        let m = ServerMetrics::new();
        for us in [10, 11, 300] {
            m.put_latency.record(us);
        }
        let doc = m.core_json();
        let put = "\"put\":{\"count\":3,\"mean_us\":107,\"p50_us\":11,\"p99_us\":300,\"p999_us\":null,\"max_us\":300}";
        assert!(doc.contains(put), "{doc}");
    }

    #[test]
    fn stat_json_sections_are_parseable_shapes() {
        let m = ServerMetrics::new();
        m.ops.puts.fetch_add(3, Ordering::Relaxed);
        m.put_latency.record(250);
        let doc = format!("{{{}}}", m.core_json());
        // Shape check without a JSON parser: balanced braces, both keys.
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "balanced braces in {doc}"
        );
        assert!(doc.contains("\"puts\":3"));
        assert!(doc.contains("\"latency_us\""));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
