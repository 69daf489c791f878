//! Server-side metrics: lock-free latency histograms and operation
//! counters, rendered as the JSON document a `STAT` request returns.
//!
//! The histogram is log₂-bucketed over microseconds: recording is two
//! relaxed atomic ops on the hot path, and percentile queries walk 64
//! counters. Bucket `i` covers `[2^i, 2^(i+1))` µs, so a reported
//! percentile is an upper bound within 2× of the true value — the right
//! trade for a server that must not take a lock per request. The load
//! generator keeps exact client-side samples; the two views bracket the
//! truth.

use std::sync::atomic::{AtomicU64, Ordering};

const BUCKETS: usize = 64;

/// A log₂-bucketed latency histogram in microseconds.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
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
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Record one latency sample.
    pub fn record(&self, us: u64) {
        let idx = 63 - (us | 1).leading_zeros() as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket holding quantile `q` (0 < q ≤ 1); 0 when
    /// empty. The true latency is within 2× below the returned value.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss, clippy::cast_precision_loss)]
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.min(self.max_us.load(Ordering::Relaxed));
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// The summary JSON object for one op class.
    pub fn summary_json(&self) -> String {
        let count = self.count();
        let mean = self
            .sum_us
            .load(Ordering::Relaxed)
            .checked_div(count)
            .unwrap_or(0);
        format!(
            "{{\"count\":{count},\"mean_us\":{mean},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{}}}",
            self.percentile(0.50),
            self.percentile(0.99),
            self.percentile(0.999),
            self.max_us.load(Ordering::Relaxed),
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
            self.put_latency.summary_json(),
            self.get_latency.summary_json(),
            self.delete_latency.summary_json(),
            self.scrub_latency.summary_json(),
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

    #[test]
    fn percentiles_bound_the_samples_within_one_bucket() {
        let h = Histogram::new();
        for us in [1u64, 2, 3, 100, 100, 100, 100, 100, 100, 5000] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.percentile(0.50);
        assert!((100..200).contains(&p50), "p50 {p50} brackets 100µs");
        // The top sample caps every high quantile at the observed max.
        assert_eq!(h.percentile(0.999), 5000);
        assert_eq!(h.percentile(1.0), 5000);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(
            h.summary_json(),
            "{\"count\":0,\"mean_us\":0,\"p50_us\":0,\"p99_us\":0,\"p999_us\":0,\"max_us\":0}"
        );
    }

    #[test]
    fn zero_and_huge_samples_do_not_panic() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(1.0), u64::MAX);
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
