//! The docs a reader follows to run things name only studies that exist.
//! README.md, DESIGN.md and the verify skill are the three places that
//! tell a reader what to run; every `-p dcode-bench -- NAME` in them must
//! name a study in `dcode_bench::REGISTRY` (or `all`), no
//! `-p dcode-bench --bin NAME` may survive the per-study binaries, and
//! none of them may send the reader to `cargo bench` — this crate has no
//! benches; throughput is `benchmark/`'s job.

use dcode_bench::REGISTRY;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `-p dcode-bench [--flag …] -- NAME` or `… --bin NAME`, across
/// line breaks and with markdown punctuation stripped from `NAME`: the
/// flag that introduced `NAME`, and `NAME`.
fn bench_runs(text: &str) -> Vec<(&str, String)> {
    let words: Vec<&str> = text.split_whitespace().collect();
    let mut runs = Vec::new();
    for (i, pair) in words.windows(2).enumerate() {
        if pair != ["-p", "dcode-bench"] {
            continue;
        }
        let mut rest = words[i + 2..].iter();
        while let Some(&flag) = rest.next() {
            if flag == "--" || flag == "--bin" {
                let name = rest.next().map_or("", |w| {
                    w.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                });
                runs.push((flag, name.to_string()));
                break;
            }
            if !flag.starts_with("--") {
                break;
            }
        }
    }
    runs
}

#[test]
fn documented_studies_exist_and_no_doc_runs_cargo_bench() {
    let root = repo_root();
    let mut checked = 0;
    let mut wrong = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        for (flag, name) in bench_runs(&text) {
            checked += 1;
            if flag == "--bin" {
                wrong.push(format!(
                    "{doc}: `--bin {name}`: dcode-bench has one binary; run `-- {name}`"
                ));
            } else if name != "all" && !REGISTRY.iter().any(|s| s.name == name) {
                wrong.push(format!("{doc}: `-- {name}` is not a registered study"));
            }
        }
        for (n, line) in text.lines().enumerate() {
            if line.contains("cargo bench") {
                wrong.push(format!("{doc}:{}: says to run `cargo bench`", n + 1));
            }
        }
    }
    // README alone lists every study: an empty scan means the parser, not
    // the docs, is wrong.
    assert!(checked >= 20, "found only {checked} `dcode-bench` runs");
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn the_scan_reads_both_forms() {
    let text = "cargo run --release -p dcode-bench -- fig4 --seed 7\n\
                `cargo run -p dcode-bench\n--bin fig5`";
    let runs = bench_runs(text);
    assert_eq!(
        runs,
        [("--", "fig4".to_string()), ("--bin", "fig5".to_string())]
    );
}
