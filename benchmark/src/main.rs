//! The repo's benchmark. Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process — the form `BENCHMARK.json`'s `command`
//!   takes. It prints every metric by name with its unit and, as the last
//!   line, one JSON object `{correct, attempted, failed, metrics}`.
//!   Tracing off prints the end-to-end metrics, tracing on the per-layer
//!   ones (and writes the spans to `benchmark/out/trace_<workload>.jsonl`).
//! * `run [--seed n] [--check | --repeat n]` runs every workload for
//!   `BENCHMARK.json`'s `run_seconds`, each in its own child process so peak
//!   memory does not leak across them: untraced, then traced.
//!
//! See README.md for what each workload and metric means.

mod array;
mod codec;
mod gen;
mod json;
mod kv;
mod metrics;
mod orchestrate;
mod probe;
mod stats;
mod trace;
mod wrap;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// One workload run's arguments.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small geometry, one set-up, short warm-up: the `run --check` smoke.
    pub smoke: bool,
}

impl Args {
    /// This share of the run's measuring time.
    pub fn timed(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// An untraced run is cut into this many segments, each on a system set
    /// up afresh. Every timing is computed per segment and the run reports
    /// the median of the segments (`setup_s` too), so what one instance or
    /// one stretch of seconds happens to get does not decide a run.
    pub fn segments(&self) -> usize {
        if self.smoke {
            1
        } else {
            4
        }
    }

    /// One segment's part of `share` of the measuring time.
    pub fn segment_timed(&self, share: f64) -> Duration {
        self.timed(share / self.segments() as f64)
    }

    /// One segment's warm-up, excluded from timing: caches fill, lazy
    /// compiles finish. Two seconds per run in all.
    pub fn segment_warmup(&self) -> Duration {
        Duration::from_secs_f64(if self.smoke {
            0.1
        } else {
            2.0 / self.segments() as f64
        })
    }
}

/// Run `setup`, returning what it built and the seconds it took.
pub fn timed_setup<T>(setup: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let built = setup();
    (started.elapsed().as_secs_f64(), built)
}

/// Microseconds since `started`, with the clock's nanosecond digits.
pub fn micros_since(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / 1e3
}

/// `VmHWM` of this process, in MiB. The workloads read it in their first
/// segment — the peak of one set-up-and-measure lifetime. Later
/// segments re-allocate what the first freed, and whether glibc then serves
/// a zeroed backend from untouched `mmap` pages or from recycled heap decides
/// tens of MiB of resident memory from run to run.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// `benchmark/out` from the repo root, `out` from inside `benchmark/`.
fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// Write the run's spans; the path is printed for the reader.
pub fn write_trace(workload: &str, recordings: &[Vec<trace::Span>]) {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create trace directory");
    let path = dir.join(format!("trace_{workload}.jsonl"));
    let file = std::fs::File::create(&path).expect("create trace file");
    let mut out = std::io::BufWriter::new(file);
    let written = trace::write_jsonl(&mut out, recordings).expect("write trace");
    std::io::Write::flush(&mut out).expect("flush trace");
    let recorded: usize = recordings.iter().map(Vec::len).sum();
    println!(
        "detail {recorded} spans recorded, {written} written to {}",
        path.display()
    );
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dcode-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      dcode-benchmark run [--seed <n>] [--check | --repeat <n>]",
        metrics::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare flags, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, flag: &str) -> Option<String> {
        let at = self.0.iter().position(|a| a == flag)?;
        if at + 1 >= self.0.len() {
            return None;
        }
        self.0.remove(at);
        Some(self.0.remove(at))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Option<T> {
        self.value(flag)?.parse().ok()
    }

    fn present(&mut self, flag: &str) -> bool {
        let at = self.0.iter().position(|a| a == flag);
        at.map(|i| self.0.remove(i)).is_some()
    }
}

fn run_workload(workload: &str, args: &Args) -> Option<i32> {
    let report = match (workload, args.trace) {
        ("kv_small_mixed", false) => kv::run(&kv::KvConfig::small_mixed(), args),
        ("kv_small_mixed", true) => kv::run_traced(&kv::KvConfig::small_mixed(), args, workload),
        ("kv_large_stream", false) => kv::run(&kv::KvConfig::large_stream(), args),
        ("kv_large_stream", true) => kv::run_traced(&kv::KvConfig::large_stream(), args, workload),
        ("array_degraded_rebuild", false) => {
            array::run(&array::StoreShape::array_workload(args), args)
        }
        ("array_degraded_rebuild", true) => {
            array::run_traced(&array::StoreShape::array_workload(args), args, workload)
        }
        _ => return None,
    };
    Some(if args.trace {
        report.emit(metrics::PER_LAYER, false)
    } else {
        report.emit(metrics::END_TO_END, true)
    })
}

fn main() -> ExitCode {
    let mut flags = Flags(std::env::args().skip(1).collect());
    if flags.0.first().is_some_and(|a| a == "run") {
        flags.0.remove(0);
        let plan = orchestrate::Plan {
            seed: flags.parsed("--seed").unwrap_or(1),
            check: flags.present("--check"),
            repeat: flags.parsed("--repeat"),
        };
        if !flags.0.is_empty() {
            return usage();
        }
        return ExitCode::from(orchestrate::run(&plan));
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flags.value("--workload"),
        flags.parsed::<u64>("--seed"),
        flags.parsed::<f64>("--seconds"),
        flags.parsed::<u8>("--trace"),
    ) else {
        return usage();
    };
    let args = Args {
        seed,
        seconds,
        trace: trace != 0,
        smoke: flags.present("--smoke"),
    };
    if !flags.0.is_empty() || seconds.is_nan() || seconds <= 0.0 || trace > 1 {
        return usage();
    }
    match run_workload(&workload, &args) {
        Some(code) => ExitCode::from(code as u8),
        None => usage(),
    }
}
