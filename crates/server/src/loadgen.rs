//! An open-loop load generator for the dcode server, with client-side
//! latency histograms and an acknowledged-write ledger.
//!
//! Open loop means each connection fires requests on a fixed schedule
//! (`rate_ops_s` across all connections) and measures latency from the
//! *intended* send time, not the actual one — so a slow server inflates
//! the tail instead of silently slowing the generator down (the
//! coordinated-omission trap a closed loop falls into). `rate_ops_s = 0`
//! degenerates to a closed loop for max-throughput runs.
//!
//! Correctness checking rides along: every connection keeps the last
//! value the server **acknowledged** per key, and a verification phase
//! reads every such key back after the run. `verify_lost > 0` means an
//! acked write was lost — the one number that must be zero even with a
//! fault-injected shard in the array.
//!
//! `Busy` responses are retried with linear backoff and counted
//! separately; the retries stay inside the op's latency sample, so
//! backpressure shows up in the tail where it belongs.
//!
//! Every connection records into the same two [`Histogram`]s, one for
//! puts and one for gets — the server's STAT histogram type, summarized
//! by the same [`Percentiles`] — so the generator's memory does not grow
//! with `ops`.

use crate::client::Client;
use crate::metrics::{json_escape, Histogram, Percentiles};
use crate::protocol::Response;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

/// Knobs for one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Server host.
    pub host: String,
    /// Server port.
    pub port: u16,
    /// Concurrent connections (threads).
    pub conns: usize,
    /// Total operations across all connections (excludes verification).
    pub ops: u64,
    /// Value size per PUT, bytes.
    pub value_bytes: usize,
    /// Distinct keys per connection (its private namespace).
    pub keys_per_conn: usize,
    /// Fraction of ops that are PUTs; the rest are GETs.
    pub put_fraction: f64,
    /// Target offered load, ops/s across all connections; 0 = closed
    /// loop (as fast as the server acks).
    pub rate_ops_s: u64,
    /// RNG seed (key choice, op mix, value bytes).
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            host: "127.0.0.1".into(),
            port: 0,
            conns: 8,
            ops: 100_000,
            value_bytes: 1024,
            keys_per_conn: 64,
            put_fraction: 0.5,
            rate_ops_s: 0,
            seed: 1,
        }
    }
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Operations completed (acked, including `NotFound` GETs).
    pub ops: u64,
    /// PUTs acknowledged.
    pub puts: u64,
    /// GETs answered (value or not-found).
    pub gets: u64,
    /// `Busy` rejections absorbed by retry.
    pub busy_retries: u64,
    /// Hard errors (protocol or store).
    pub errors: u64,
    /// GETs during the run whose value contradicted the acked ledger.
    pub mismatches: u64,
    /// Wall-clock seconds for the op phase.
    pub elapsed_s: f64,
    /// `ops / elapsed_s`.
    pub achieved_ops_s: f64,
    /// PUT latency percentiles, microseconds (client-side).
    pub put_us: Percentiles,
    /// GET latency percentiles, microseconds.
    pub get_us: Percentiles,
    /// Keys with at least one acked PUT, all re-read in verification.
    pub verify_checked: u64,
    /// Acked keys whose read-back failed or mismatched. Must be 0.
    pub verify_lost: u64,
}

impl LoadgenReport {
    /// The `BENCH_server.json` document for this run.
    pub fn to_json(&self, cfg: &LoadgenConfig, server_stat: Option<&str>) -> String {
        let server = server_stat.map_or_else(|| "null".to_string(), str::to_string);
        format!(
            "{{\n  \"config\":{{\"host\":\"{}\",\"port\":{},\"conns\":{},\"ops\":{},\
             \"value_bytes\":{},\"keys_per_conn\":{},\"put_fraction\":{},\"rate_ops_s\":{},\"seed\":{}}},\n  \
             \"ops\":{},\n  \"puts\":{},\n  \"gets\":{},\n  \"busy_retries\":{},\n  \"errors\":{},\n  \
             \"mismatches\":{},\n  \"elapsed_s\":{:.3},\n  \"achieved_ops_s\":{:.1},\n  \
             \"put_us\":{},\n  \"get_us\":{},\n  \
             \"verify_checked\":{},\n  \"verify_lost\":{},\n  \"server_stat\":{}\n}}",
            json_escape(&cfg.host),
            cfg.port,
            cfg.conns,
            cfg.ops,
            cfg.value_bytes,
            cfg.keys_per_conn,
            cfg.put_fraction,
            cfg.rate_ops_s,
            cfg.seed,
            self.ops,
            self.puts,
            self.gets,
            self.busy_retries,
            self.errors,
            self.mismatches,
            self.elapsed_s,
            self.achieved_ops_s,
            self.put_us.json(),
            self.get_us.json(),
            self.verify_checked,
            self.verify_lost,
            server,
        )
    }
}

/// What one connection thread brings home.
struct ThreadOutcome {
    puts: u64,
    gets: u64,
    busy_retries: u64,
    errors: u64,
    mismatches: u64,
    verify_checked: u64,
    verify_lost: u64,
}

/// Deterministic value for key `key` at version `version`: reproducible
/// on the verification read without storing every payload.
fn value_for(seed: u64, key: &str, version: u64, len: usize) -> Vec<u8> {
    let mut h = dcode_core::Fnv1a::new();
    h.word(seed);
    h.bytes(key.as_bytes());
    h.word(version);
    let mut state = h.finish() | 1;
    (0..len)
        .map(|_| {
            // xorshift64* keeps the fill cheap and well-mixed.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// Send with bounded-backoff retry on `Busy`. Returns the final response
/// and how many rejections were absorbed.
fn send_with_retry(
    client: &mut Client,
    mut send: impl FnMut(&mut Client) -> io::Result<Response>,
) -> io::Result<(Response, u64)> {
    let mut busy = 0u64;
    loop {
        match send(client)? {
            Response::Busy { .. } => {
                busy += 1;
                // Linear backoff, capped: the server told us the shard
                // is full, so give the admitted ops time to finish.
                std::thread::sleep(Duration::from_micros(200 * busy.min(50)));
            }
            other => return Ok((other, busy)),
        }
    }
}

/// Run `ops` ops on one connection, recording each op's latency into
/// `latency` (`[put, get]`).
fn run_connection(
    cfg: &LoadgenConfig,
    thread: usize,
    ops: u64,
    latency: &[Histogram; 2],
) -> io::Result<ThreadOutcome> {
    let mut client = Client::connect((cfg.host.as_str(), cfg.port))?;
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(thread as u64 + 1));
    // key → (version, acked) ledger. `acked` flips only on an OK.
    let mut ledger: HashMap<usize, u64> = HashMap::new();
    let mut versions: HashMap<usize, u64> = HashMap::new();
    let mut out = ThreadOutcome {
        puts: 0,
        gets: 0,
        busy_retries: 0,
        errors: 0,
        mismatches: 0,
        verify_checked: 0,
        verify_lost: 0,
    };
    let start = Instant::now();
    // Per-thread inter-arrival gap for the open loop.
    let gap = if cfg.rate_ops_s == 0 {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(cfg.conns as f64 / cfg.rate_ops_s as f64)
    };
    for i in 0..ops {
        #[allow(clippy::cast_precision_loss)]
        let intended = start + Duration::from_secs_f64(gap.as_secs_f64() * i as f64);
        let now = Instant::now();
        if now < intended {
            std::thread::sleep(intended - now);
        }
        let clock = if cfg.rate_ops_s == 0 {
            Instant::now()
        } else {
            intended
        };
        let key_id = rng.gen_range(0usize..cfg.keys_per_conn);
        let key = format!("c{thread}-k{key_id}");
        if rng.gen_bool(cfg.put_fraction) {
            let version = versions.get(&key_id).copied().unwrap_or(0) + 1;
            versions.insert(key_id, version);
            let value = value_for(cfg.seed, &key, version, cfg.value_bytes);
            let (resp, busy) = send_with_retry(&mut client, |c| c.put(&key, &value))?;
            out.busy_retries += busy;
            match resp {
                Response::Ok => {
                    ledger.insert(key_id, version);
                    out.puts += 1;
                }
                _ => out.errors += 1,
            }
            #[allow(clippy::cast_possible_truncation)]
            latency[0].record(clock.elapsed().as_micros() as u64);
        } else {
            let (resp, busy) = send_with_retry(&mut client, |c| c.get(&key))?;
            out.busy_retries += busy;
            match resp {
                Response::Value(bytes) => {
                    out.gets += 1;
                    if let Some(&acked) = ledger.get(&key_id) {
                        let expect = value_for(cfg.seed, &key, acked, cfg.value_bytes);
                        if bytes != expect {
                            out.mismatches += 1;
                        }
                    }
                }
                Response::NotFound => {
                    out.gets += 1;
                    if ledger.contains_key(&key_id) {
                        // An acked write has vanished mid-run.
                        out.mismatches += 1;
                    }
                }
                _ => out.errors += 1,
            }
            #[allow(clippy::cast_possible_truncation)]
            latency[1].record(clock.elapsed().as_micros() as u64);
        }
    }
    // Verification: every acked key must read back as its acked value.
    for (&key_id, &version) in &ledger {
        let key = format!("c{thread}-k{key_id}");
        out.verify_checked += 1;
        let (resp, busy) = send_with_retry(&mut client, |c| c.get(&key))?;
        out.busy_retries += busy;
        match resp {
            Response::Value(bytes)
                if bytes == value_for(cfg.seed, &key, version, cfg.value_bytes) => {}
            _ => out.verify_lost += 1,
        }
    }
    Ok(out)
}

/// Run the generator against a live server and aggregate the report.
pub fn run(cfg: &LoadgenConfig) -> io::Result<LoadgenReport> {
    assert!(cfg.conns > 0 && cfg.keys_per_conn > 0);
    assert!((0.0..=1.0).contains(&cfg.put_fraction));
    let started = Instant::now();
    let per_thread = cfg.ops / cfg.conns as u64;
    let remainder = cfg.ops % cfg.conns as u64;
    let latency = [Histogram::new(), Histogram::new()];
    let mut report = LoadgenReport {
        ops: 0,
        puts: 0,
        gets: 0,
        busy_retries: 0,
        errors: 0,
        mismatches: 0,
        elapsed_s: 0.0,
        achieved_ops_s: 0.0,
        put_us: Percentiles::default(),
        get_us: Percentiles::default(),
        verify_checked: 0,
        verify_lost: 0,
    };
    let mut first_error = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|t| {
                let ops = per_thread + u64::from((t as u64) < remainder);
                let latency = &latency;
                std::thread::Builder::new()
                    .name(format!("loadgen-{t}"))
                    .spawn_scoped(scope, move || run_connection(cfg, t, ops, latency))
                    .expect("spawn loadgen thread")
            })
            .collect();
        for handle in handles {
            match handle.join().expect("loadgen thread panicked") {
                Ok(outcome) => {
                    report.puts += outcome.puts;
                    report.gets += outcome.gets;
                    report.busy_retries += outcome.busy_retries;
                    report.errors += outcome.errors;
                    report.mismatches += outcome.mismatches;
                    report.verify_checked += outcome.verify_checked;
                    report.verify_lost += outcome.verify_lost;
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
    });
    if let Some(e) = first_error {
        return Err(e);
    }
    report.ops = report.puts + report.gets + report.errors;
    report.elapsed_s = started.elapsed().as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    {
        report.achieved_ops_s = if report.elapsed_s > 0.0 {
            report.ops as f64 / report.elapsed_s
        } else {
            0.0
        };
    }
    report.put_us = latency[0].percentiles();
    report.get_us = latency[1].percentiles();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_deterministic_and_version_sensitive() {
        let a = value_for(1, "k", 1, 256);
        assert_eq!(a, value_for(1, "k", 1, 256));
        assert_ne!(a, value_for(1, "k", 2, 256));
        assert_ne!(a, value_for(2, "k", 1, 256));
        assert_eq!(a.len(), 256);
    }

    #[test]
    fn report_json_has_the_headline_numbers() {
        let report = LoadgenReport {
            ops: 10,
            puts: 4,
            gets: 6,
            busy_retries: 1,
            errors: 0,
            mismatches: 0,
            elapsed_s: 0.5,
            achieved_ops_s: 20.0,
            put_us: Percentiles {
                count: 4,
                mean: 120,
                p50: 100,
                p99: 200,
                p999: None,
                max: 200,
            },
            get_us: Percentiles::default(),
            verify_checked: 3,
            verify_lost: 0,
        };
        let json = report.to_json(&LoadgenConfig::default(), None);
        assert!(json.contains("\"verify_lost\":0"));
        assert!(json.contains("\"p999_us\":null"));
        assert!(json.contains("\"server_stat\":null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
