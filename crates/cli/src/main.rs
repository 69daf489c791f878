//! `dcode` — stripe files across directory-backed "disks" with any RAID-6
//! code in the workspace, kill disks, fetch through failures, rebuild,
//! scrub silent corruption, chaos-soak the resilience machinery, and
//! statically check the compiled XOR schedules.
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
//! dcode layout <code-name> [--p N]
//! dcode verify [--code NAME [--p N] | --all] [--json]
//! dcode race [--all] [--json]
//! dcode serve <array-dir> [--shards N] [--port P]
//! dcode loadgen <host:port> [--ops N] [--out FILE]
//! ```
//!
//! Each command declares the flags it takes once ([`FLAGS`]); any other
//! flag is a usage error. Exit codes: 0 success, 1 I/O or metadata,
//! 2 usage, 3 array state (or a failed static check), 4 ambiguous
//! (unlocalizable) corruption, 5 corruption found by a dry-run scrub.

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
  dcode verify [--code NAME [--p N] | --all] [--json]
                                       # statically check compiled schedules:
                                       # symbolic equivalence, lints, and cost/IO
                                       # vs the paper's claims; --all for every
                                       # code at p in {5,7,11,13,17} (exit 3 on
                                       # any finding or missed claim)
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

/// The flags each command accepts, declared once: `(command, value
/// flags, switches)`. A value flag takes the next argument, a switch none;
/// any other `--flag` is a usage error.
const FLAGS: [(&str, &[&str], &[&str]); 13] = [
    ("store", &["code", "p", "block"], &[]),
    ("fetch", &[], &[]),
    ("status", &[], &[]),
    ("kill", &[], &[]),
    ("rebuild", &[], &[]),
    ("scrub", &["repair"], &[]),
    ("chaos", &["seed", "ops", "code", "p"], &[]),
    ("crash-sim", &["seed"], &["all", "json", "mutate"]),
    ("layout", &["p"], &[]),
    ("verify", &["code", "p"], &["all", "json"]),
    ("race", &[], &["all", "json"]),
    (
        "serve",
        &[
            "code",
            "p",
            "shards",
            "port",
            "block",
            "stripes",
            "queue-cap",
            "conns",
        ],
        &[],
    ),
    (
        "loadgen",
        &[
            "ops", "conns", "value", "keys", "puts", "rate", "seed", "out",
        ],
        &[],
    ),
];

fn run(args: &[String]) -> Result<String, CliError> {
    let usage = |msg: &str| CliError::Usage(format!("{msg}\n\n{USAGE}"));
    let Some(cmd) = args.first() else {
        return Err(usage("missing command"));
    };
    let Some(&(_, value_flags, switches)) = FLAGS.iter().find(|(name, ..)| name == cmd) else {
        return Err(usage(&format!("unknown command '{cmd}'")));
    };

    // Split positionals from the command's declared --flags.
    let mut positional: Vec<&String> = Vec::new();
    let mut flags: Vec<(&str, &str)> = Vec::new();
    let mut set: Vec<&str> = Vec::new();
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match arg.strip_prefix("--") {
            Some(name) if switches.contains(&name) => set.push(name),
            Some(name) if value_flags.contains(&name) => {
                let value = rest
                    .next()
                    .ok_or_else(|| usage(&format!("flag --{name} needs a value")))?;
                flags.push((name, value));
            }
            Some(name) => return Err(usage(&format!("{cmd} does not take --{name}"))),
            None => positional.push(arg),
        }
    }
    let flag = |name: &str| flags.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let switch = |name: &str| set.contains(&name);
    // A count the command sizes threads, slots or keys by: zero is refused
    // here, before anything is created.
    let count = |name: &str, default: &str| -> Result<usize, CliError> {
        match flag(name).unwrap_or(default).parse() {
            Ok(0) => Err(usage(&format!("--{name} must be at least 1"))),
            Ok(n) => Ok(n),
            Err(_) => Err(usage(&format!("--{name} must be a number"))),
        }
    };

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
            commands::crash_sim(seed, switch("all"), switch("json"), switch("mutate"))
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
                return Err(usage("verify takes only --code/--p/--all/--json flags"));
            }
            if switch("all") && (flag("code").is_some() || flag("p").is_some()) {
                return Err(usage(
                    "verify --all checks every code and prime; drop --code/--p",
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
            commands::verify(code, p, switch("all"), switch("json"))
        }
        "race" => {
            if !positional.is_empty() {
                return Err(usage("race takes only --all/--json flags"));
            }
            commands::race(switch("all"), switch("json"))
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
                queue_cap: count("queue-cap", "128")?,
                conns: count("conns", "32")?,
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
                conns: count("conns", "8")?,
                value: num("value", "1024")? as usize,
                keys: count("keys", "64")?,
                put_fraction: puts,
                rate: num("rate", "0")?,
                seed: num("seed", "1")?,
                out: PathBuf::from(flag("out").unwrap_or("BENCH_server.json")),
            };
            commands::loadgen(&opts)
        }
        other => unreachable!("command '{other}' is in FLAGS but has no arm"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn run_words(line: &str) -> Result<String, CliError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        run(&args)
    }

    fn usage_error(line: &str) -> String {
        match run_words(line) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("`{line}`: expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn misspelled_value_flag_is_a_usage_error() {
        let msg = usage_error("verify --code dcode --pp 5");
        assert!(msg.starts_with("verify does not take --pp"), "{msg}");
    }

    /// `serve` with a zero count is refused before it creates the
    /// directory: a half-made one is a store no later `serve` opens.
    fn zero_serve_count_is_a_usage_error(flag: &str) {
        let dir =
            std::env::temp_dir().join(format!("dcode-cli-zero-{flag}-{}", std::process::id()));
        let msg = usage_error(&format!("serve {} --{flag} 0", dir.display()));
        assert!(
            msg.starts_with(&format!("--{flag} must be at least 1")),
            "{msg}"
        );
        assert!(!dir.exists(), "{} was created", dir.display());
    }

    #[test]
    fn serve_with_zero_conns_is_a_usage_error() {
        zero_serve_count_is_a_usage_error("conns");
    }

    #[test]
    fn serve_with_zero_queue_cap_is_a_usage_error() {
        zero_serve_count_is_a_usage_error("queue-cap");
    }

    #[test]
    fn loadgen_with_zero_conns_is_a_usage_error() {
        let msg = usage_error("loadgen 127.0.0.1:1 --conns 0");
        assert!(msg.starts_with("--conns must be at least 1"), "{msg}");
    }

    #[test]
    fn loadgen_with_zero_keys_is_a_usage_error() {
        let msg = usage_error("loadgen 127.0.0.1:1 --keys 0");
        assert!(msg.starts_with("--keys must be at least 1"), "{msg}");
    }

    #[test]
    fn switch_on_a_command_that_does_not_take_it_is_a_usage_error() {
        let msg = usage_error("status some-dir --json");
        assert!(msg.starts_with("status does not take --json"), "{msg}");
        let msg = usage_error("chaos --mutate");
        assert!(msg.starts_with("chaos does not take --mutate"), "{msg}");
    }

    #[test]
    fn verify_all_with_a_code_or_prime_is_a_usage_error() {
        for line in ["verify --all --code rdp", "verify --p 5 --all"] {
            let msg = usage_error(line);
            assert!(msg.starts_with("verify --all checks every code"), "{msg}");
        }
    }

    #[test]
    fn every_declared_command_has_an_arm_and_a_usage_line() {
        // With no arguments every command fails on its own terms (a usage
        // error or a missing input), never on the `unreachable!` arm;
        // `chaos`, `crash-sim` and `race` would do real work, so they are
        // checked through their usage lines only.
        for (cmd, ..) in FLAGS {
            assert!(USAGE.contains(&format!("dcode {cmd} ")), "{cmd}");
            if !["chaos", "crash-sim", "race"].contains(&cmd) {
                assert!(run_words(cmd).is_err(), "{cmd}");
            }
        }
        assert!(usage_error("analyze").starts_with("unknown command 'analyze'"));
    }
}
