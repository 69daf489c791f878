//! `dcode` — stripe files across directory-backed "disks" with any RAID-6
//! code in the workspace, kill disks, fetch through failures, rebuild,
//! scrub silent corruption, and chaos-soak the resilience machinery.
//!
//! ```text
//! dcode store <file> <array-dir> [--code dcode] [--p 7] [--block 4096]
//! dcode fetch <array-dir> <output-file>
//! dcode status <array-dir>
//! dcode kill <array-dir> <disk>
//! dcode rebuild <array-dir>
//! dcode scrub <array-dir> [--repair on|off]
//! dcode chaos --seed N --ops M [--code NAME --p N]
//! dcode crash-sim [--seed N] [--all] [--json] [--mutate]
//! dcode serve <array-dir> [--shards N] [--port P]
//! dcode loadgen <host:port> [--ops N] [--out FILE]
//! ```
//!
//! Exit codes: 0 success, 1 I/O or metadata, 2 usage, 3 array state,
//! 4 ambiguous (unlocalizable) corruption, 5 corruption found by a
//! dry-run scrub.

mod commands;
mod meta;

use commands::CliError;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "dcode — RAID-6 file archival over directory-backed disks

USAGE:
  dcode store <file> <array-dir> [--code NAME] [--p N] [--block BYTES]
  dcode fetch <array-dir> <output-file>
  dcode status <array-dir>
  dcode kill <array-dir> <disk-index>
  dcode rebuild <array-dir>
  dcode scrub <array-dir> [--repair on|off]   # off = dry run, exit 5 if corrupt
  dcode chaos [--seed N] [--ops M] [--code NAME --p N]
                                       # seeded fault-injection soak (exit 3 on loss)
  dcode crash-sim [--seed N] [--all] [--json] [--mutate]
                                       # exhaustive write-hole crash sweep: every
                                       # write-path op crashed at every write index,
                                       # remounted, verified (exit 3 on loss);
                                       # --all sweeps dcode/rdp/evenodd at p in {5,7};
                                       # --mutate plants a journal-ordering bug the
                                       # sweep must catch (harness self-test)
  dcode layout <code-name> [--p N]     # print a code's layout and spec
  dcode verify [--code NAME] [--p N]   # statically verify compiled schedules
  dcode verify --all                   # …for every code at p in {5,7,11,13,17}
  dcode analyze [--code NAME] [--p N] [--assert-claims] [--json] [--opt-delta]
                                       # static cost/IO/parallelism analysis of
                                       # compiled schedules vs the paper's claims;
                                       # --opt-delta adds per-scope optimizer
                                       # cost-delta certificates (registry codes
                                       # must certify delta = 0; any violated
                                       # certificate exits 3 even without
                                       # --assert-claims)
  dcode analyze --all                  # …for every code at p in {5,7,11,13,17}
  dcode race [--all] [--json]          # model-check the pool/cache/shard
                                       # concurrency invariants (+ mutation
                                       # self-tests + lock-order discipline);
                                       # --all explores the deep interleaving
                                       # budget (exit 3 on violation)
  dcode serve <array-dir> [--shards N] [--port P] [--code NAME] [--p N]
              [--block BYTES] [--stripes N] [--queue-cap N] [--conns N]
                                       # sharded TCP object server over
                                       # file-backed RAID-6 arrays; runs
                                       # until killed
  dcode loadgen <host:port> [--ops N] [--conns N] [--value BYTES] [--keys N]
              [--puts FRACTION] [--rate OPS_PER_S] [--seed N] [--out FILE]
                                       # open-loop load + acked-write
                                       # verification; JSON report to
                                       # FILE (exit 3 on any lost ack)

CODES: dcode (default), xcode, rdp, hcode, hdp, evenodd, pcode
DEFAULTS: --p 7, --block 4096, --repair on, --seed 1, --ops 5000 (chaos)
  serve: --shards 4, --port 4650, --stripes 64, --queue-cap 128, --conns 32
  loadgen: --ops 100000, --conns 8, --value 1024, --keys 64, --puts 0.5,
           --rate 0 (closed loop), --out BENCH_server.json
EXIT CODES: 0 ok · 1 I/O-or-metadata · 2 usage · 3 array state ·
            4 ambiguous corruption · 5 dry-run found corruption";

fn run() -> Result<String, CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = |msg: &str| CliError::Usage(format!("{msg}\n\n{USAGE}"));
    let Some(cmd) = args.first() else {
        return Err(usage("missing command"));
    };

    // Split positionals from --flags.
    let mut positional: Vec<&String> = Vec::new();
    let mut flags: Vec<(&str, &str)> = Vec::new();
    let mut i = 1;
    let mut all = false;
    let mut assert_claims = false;
    let mut json = false;
    let mut mutate = false;
    let mut opt_delta = false;
    while i < args.len() {
        // Boolean flags take no value; everything else under `--` does.
        if args[i] == "--all" {
            all = true;
            i += 1;
        } else if args[i] == "--assert-claims" {
            assert_claims = true;
            i += 1;
        } else if args[i] == "--json" {
            json = true;
            i += 1;
        } else if args[i] == "--mutate" {
            mutate = true;
            i += 1;
        } else if args[i] == "--opt-delta" {
            opt_delta = true;
            i += 1;
        } else if let Some(name) = args[i].strip_prefix("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| usage(&format!("flag --{name} needs a value")))?;
            flags.push((name, value));
            i += 2;
        } else {
            positional.push(&args[i]);
            i += 1;
        }
    }
    let flag = |name: &str| flags.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);

    match cmd.as_str() {
        "store" => {
            let [file, dir] = positional.as_slice() else {
                return Err(usage("store needs <file> <array-dir>"));
            };
            let code = meta::parse_code(flag("code").unwrap_or("dcode")).map_err(|e| usage(&e))?;
            let p: usize = flag("p")
                .unwrap_or("7")
                .parse()
                .map_err(|_| usage("--p must be a prime number"))?;
            let block: usize = flag("block")
                .unwrap_or("4096")
                .parse()
                .map_err(|_| usage("--block must be a byte count"))?;
            commands::store(&PathBuf::from(file), &PathBuf::from(dir), code, p, block)
        }
        "fetch" => {
            let [dir, out] = positional.as_slice() else {
                return Err(usage("fetch needs <array-dir> <output-file>"));
            };
            commands::fetch(&PathBuf::from(dir), &PathBuf::from(out))
        }
        "status" => {
            let [dir] = positional.as_slice() else {
                return Err(usage("status needs <array-dir>"));
            };
            commands::status(&PathBuf::from(dir))
        }
        "kill" => {
            let [dir, disk] = positional.as_slice() else {
                return Err(usage("kill needs <array-dir> <disk-index>"));
            };
            let disk: usize = disk
                .parse()
                .map_err(|_| usage("disk index must be a number"))?;
            commands::kill(&PathBuf::from(dir), disk)
        }
        "rebuild" => {
            let [dir] = positional.as_slice() else {
                return Err(usage("rebuild needs <array-dir>"));
            };
            commands::rebuild(&PathBuf::from(dir))
        }
        "scrub" => {
            let [dir] = positional.as_slice() else {
                return Err(usage("scrub needs <array-dir>"));
            };
            let repair = match flag("repair").unwrap_or("on") {
                "on" => true,
                "off" => false,
                other => return Err(usage(&format!("--repair must be on|off, got '{other}'"))),
            };
            commands::scrub(&PathBuf::from(dir), repair)
        }
        "chaos" => {
            if !positional.is_empty() {
                return Err(usage("chaos takes only --seed/--ops/--code/--p flags"));
            }
            let seed: u64 = flag("seed")
                .unwrap_or("1")
                .parse()
                .map_err(|_| usage("--seed must be a number"))?;
            let ops: usize = flag("ops")
                .unwrap_or("5000")
                .parse()
                .map_err(|_| usage("--ops must be a number"))?;
            let target = flag("code")
                .map(|name| {
                    let code = meta::parse_code(name).map_err(|e| usage(&e))?;
                    let p: usize = flag("p")
                        .unwrap_or("7")
                        .parse()
                        .map_err(|_| usage("--p must be a prime number"))?;
                    Ok::<_, CliError>((code, p))
                })
                .transpose()?;
            commands::chaos(seed, ops, target)
        }
        "crash-sim" => {
            if !positional.is_empty() {
                return Err(usage(
                    "crash-sim takes only --seed/--all/--json/--mutate flags",
                ));
            }
            let seed: u64 = flag("seed")
                .unwrap_or("1")
                .parse()
                .map_err(|_| usage("--seed must be a number"))?;
            commands::crash_sim(seed, all, json, mutate)
        }
        "layout" => {
            let [code_name] = positional.as_slice() else {
                return Err(usage("layout needs <code-name>"));
            };
            let code = meta::parse_code(code_name).map_err(|e| usage(&e))?;
            let p: usize = flag("p")
                .unwrap_or("7")
                .parse()
                .map_err(|_| usage("--p must be a prime number"))?;
            commands::layout(code, p)
        }
        "verify" => {
            if !positional.is_empty() {
                return Err(usage("verify takes only --code/--p/--all flags"));
            }
            let code = flag("code")
                .map(|name| meta::parse_code(name).map_err(|e| usage(&e)))
                .transpose()?;
            let p = flag("p")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| usage("--p must be a prime number"))
                })
                .transpose()?;
            commands::verify(code, p, all)
        }
        "analyze" => {
            if !positional.is_empty() {
                return Err(usage(
                    "analyze takes only --code/--p/--all/--assert-claims/--json/--opt-delta flags",
                ));
            }
            let code = flag("code")
                .map(|name| meta::parse_code(name).map_err(|e| usage(&e)))
                .transpose()?;
            let p = flag("p")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| usage("--p must be a prime number"))
                })
                .transpose()?;
            commands::analyze(code, p, all, assert_claims, json, opt_delta)
        }
        "race" => {
            if !positional.is_empty() {
                return Err(usage("race takes only --all/--json flags"));
            }
            commands::race(all, json)
        }
        "serve" => {
            let [dir] = positional.as_slice() else {
                return Err(usage("serve needs <array-dir>"));
            };
            let code = meta::parse_code(flag("code").unwrap_or("dcode")).map_err(|e| usage(&e))?;
            let num = |name: &str, default: &str| -> Result<usize, CliError> {
                flag(name)
                    .unwrap_or(default)
                    .parse()
                    .map_err(|_| usage(&format!("--{name} must be a number")))
            };
            let port: u16 = flag("port")
                .unwrap_or("4650")
                .parse()
                .map_err(|_| usage("--port must be a TCP port"))?;
            let opts = commands::ServeOpts {
                code,
                p: num("p", "7")?,
                shards: num("shards", "4")?,
                port,
                block: num("block", "4096")?,
                stripes: num("stripes", "64")?,
                queue_cap: num("queue-cap", "128")?,
                conns: num("conns", "32")?,
            };
            commands::serve(&PathBuf::from(dir), &opts)
        }
        "loadgen" => {
            let [addr] = positional.as_slice() else {
                return Err(usage("loadgen needs <host:port>"));
            };
            let (host, port) = addr
                .rsplit_once(':')
                .and_then(|(h, p)| p.parse::<u16>().ok().map(|p| (h.to_string(), p)))
                .ok_or_else(|| usage("loadgen target must be host:port"))?;
            let num = |name: &str, default: &str| -> Result<u64, CliError> {
                flag(name)
                    .unwrap_or(default)
                    .parse()
                    .map_err(|_| usage(&format!("--{name} must be a number")))
            };
            let puts: f64 = flag("puts")
                .unwrap_or("0.5")
                .parse()
                .ok()
                .filter(|f| (0.0..=1.0).contains(f))
                .ok_or_else(|| usage("--puts must be a fraction in [0, 1]"))?;
            let opts = commands::LoadgenOpts {
                host,
                port,
                ops: num("ops", "100000")?,
                conns: num("conns", "8")? as usize,
                value: num("value", "1024")? as usize,
                keys: num("keys", "64")? as usize,
                put_fraction: puts,
                rate: num("rate", "0")?,
                seed: num("seed", "1")?,
                out: PathBuf::from(flag("out").unwrap_or("BENCH_server.json")),
            };
            commands::loadgen(&opts)
        }
        other => Err(usage(&format!("unknown command '{other}'"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
