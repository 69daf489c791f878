//! In-memory span recording for the traced pass, and the self-time
//! roll-up over the recorded spans.
//!
//! A span is `{name, start_ns, end_ns, parent, op}`: `parent` is the index
//! of the enclosing span in the same recording, `op` the identifier shared
//! by every span of one request. Spans are kept in memory and written out
//! when the run ends. A layer's *self time* is its span's duration minus
//! the time covered by its child spans.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

/// Nanoseconds since the first call in this process — one clock for every
/// thread's recording, so spans from different threads line up.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Default)]
struct Recording {
    enabled: bool,
    op: u64,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
}

/// A cloneable handle to one thread's recording. Every wrapper on one
/// call path shares a handle, so nesting is reconstructed from call order.
/// The mutex is only there to make the handle `Send` (shard backends move
/// to a worker thread); it is never contended.
#[derive(Clone, Default)]
pub struct Tracer(Arc<Mutex<Recording>>);

impl Tracer {
    /// A recording that starts disabled (warm-up and prefill stay out).
    pub fn new() -> Self {
        Tracer::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Recording> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns whether recording was enabled before.
    pub fn set_enabled(&self, enabled: bool) -> bool {
        std::mem::replace(&mut self.lock().enabled, enabled)
    }

    /// Identifier stamped on every span opened from now on.
    pub fn set_op(&self, op: u64) {
        self.lock().op = op;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut rec = self.lock();
            if rec.enabled {
                let id = rec.spans.len() as u32;
                let (parent, op) = (rec.stack.last().copied(), rec.op);
                rec.spans.push(Span {
                    name,
                    start_ns: now_ns(),
                    end_ns: 0,
                    parent,
                    op,
                });
                rec.stack.push(id);
                Some(id)
            } else {
                None
            }
        };
        let out = f();
        if let Some(id) = id {
            let end = now_ns();
            let mut rec = self.lock();
            rec.spans[id as usize].end_ns = end;
            rec.stack.pop();
        }
        out
    }

    /// Take every recorded span, leaving the recording empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.lock().spans)
    }
}

/// Totals for one span name below one kind of root span.
#[derive(Default, Clone, Copy, Debug, PartialEq)]
pub struct NameTotals {
    pub calls: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// Everything recorded below root spans of one name (the root included).
#[derive(Default, Clone, Debug)]
pub struct RootTotals {
    pub roots: u64,
    pub by_name: BTreeMap<&'static str, NameTotals>,
}

impl RootTotals {
    pub fn get(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Σ over names starting with `prefix` of `field`, per root, in µs.
    fn per_root_us(&self, prefix: &str, field: impl Fn(&NameTotals) -> u64) -> f64 {
        if self.roots == 0 {
            return 0.0;
        }
        let total: u64 = self
            .by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| field(t))
            .sum();
        total as f64 / 1e3 / self.roots as f64
    }

    /// Self time of the spans starting with `prefix`, per root, in µs.
    pub fn self_us(&self, prefix: &str) -> f64 {
        self.per_root_us(prefix, |t| t.self_ns)
    }

    /// Duration of the spans starting with `prefix`, per root, in µs.
    pub fn dur_us(&self, prefix: &str) -> f64 {
        self.per_root_us(prefix, |t| t.dur_ns)
    }

    /// Calls of spans starting with `prefix`, per root.
    pub fn calls_per_root(&self, prefix: &str) -> f64 {
        if self.roots == 0 {
            return 0.0;
        }
        let calls: u64 = self
            .by_name
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, t)| t.calls)
            .sum();
        calls as f64 / self.roots as f64
    }
}

/// Group spans by the name of their root (parentless ancestor) and total
/// calls, duration and self time per span name. Parents precede children
/// in a recording, so one forward pass resolves every root.
pub fn rollup(spans: &[Span]) -> BTreeMap<&'static str, RootTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut root_of = vec![0usize; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        match span.parent {
            Some(p) => {
                child_ns[p as usize] += span.end_ns - span.start_ns;
                root_of[i] = root_of[p as usize];
            }
            None => root_of[i] = i,
        }
    }
    let mut out: BTreeMap<&'static str, RootTotals> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        let totals = out.entry(spans[root_of[i]].name).or_default();
        if span.parent.is_none() {
            totals.roots += 1;
        }
        let dur = span.end_ns - span.start_ns;
        let t = totals.by_name.entry(span.name).or_default();
        t.calls += 1;
        t.dur_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[i]);
    }
    out
}

/// Spans written per recording and root-span name. A 20-second traced
/// pass records about a million spans; the roll-up uses them all, the file
/// keeps the first requests of every kind (a healthy get, a degraded get
/// and a rebuild step all stay represented) — plenty to follow single
/// requests through the layers.
pub const MAX_WRITTEN_PER_ROOT: usize = 40_000;

/// Append recordings to `out` as JSON lines, whole request trees at a
/// time, up to [`MAX_WRITTEN_PER_ROOT`] spans per root name and recording.
/// `parent` is the zero-based line number of the parent span in the file
/// (`null` for a root). Returns the lines written.
pub fn write_jsonl(out: &mut impl Write, recordings: &[Vec<Span>]) -> io::Result<usize> {
    let mut line = 0usize;
    for spans in recordings {
        let mut written: BTreeMap<&str, usize> = BTreeMap::new();
        let mut line_of = vec![None; spans.len()];
        // One thread records a tree depth-first, so a root's descendants
        // are exactly the spans up to the next root.
        let (mut root, mut kept) = ("", false);
        for (i, s) in spans.iter().enumerate() {
            if s.parent.is_none() {
                root = s.name;
                kept = written.get(root).copied().unwrap_or(0) < MAX_WRITTEN_PER_ROOT;
            }
            if !kept {
                continue;
            }
            *written.entry(root).or_default() += 1;
            line_of[i] = Some(line);
            let parent = s.parent.map_or_else(
                || "null".to_string(),
                |p| line_of[p as usize].expect("parent written").to_string(),
            );
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
            line += 1;
        }
    }
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_and_sums_to_the_root() {
        let spans = vec![
            span("objstore.upsert", 0, 100, None),
            span("array.write_elements", 10, 90, Some(0)),
            span("backend.read_block", 20, 30, Some(1)),
            span("backend.flush", 40, 45, Some(1)),
            span("objstore.get", 200, 230, None),
            span("array.read_elements", 205, 225, Some(4)),
        ];
        let roll = rollup(&spans);
        let put = &roll["objstore.upsert"];
        assert_eq!(put.roots, 1);
        assert_eq!(put.get("objstore.upsert").self_ns, 20);
        assert_eq!(put.get("array.write_elements").self_ns, 65);
        assert_eq!(put.get("backend.read_block").self_ns, 10);
        let layers: u64 = put.by_name.values().map(|t| t.self_ns).sum();
        assert_eq!(layers, 100, "self times sum to the root span exactly");
        assert_eq!(put.calls_per_root("backend."), 2.0);
        let get = &roll["objstore.get"];
        assert_eq!(get.get("objstore.get").self_ns, 10);
        assert_eq!(get.self_us("array."), 0.02);
    }

    #[test]
    fn nesting_follows_call_order_and_disabled_records_nothing() {
        let t = Tracer::new();
        t.span("ignored", || ());
        t.set_enabled(true);
        t.set_op(7);
        t.span("outer", || {
            t.span("inner", || ());
            t.span("inner", || ());
        });
        let spans = t.take();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 7),
                ("inner", Some(0), 7),
                ("inner", Some(0), 7)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &[spans.clone(), spans]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 6);
        assert!(text.lines().nth(4).unwrap().contains("\"parent\":3"));
    }
}
