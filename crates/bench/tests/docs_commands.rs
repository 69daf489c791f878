//! The docs a reader follows to run things name only binaries that exist.
//! README.md, DESIGN.md and the verify skill are the three places that
//! tell a reader what to run; every `-p dcode-bench --bin NAME` in them
//! must be a file in `src/bin`, and none of them may send the reader to
//! `cargo bench` — this crate has no benches; throughput is
//! `benchmark/`'s job.

use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `NAME` in `-p dcode-bench [--flag …] --bin NAME`, across line
/// breaks and with markdown punctuation stripped from `NAME`.
fn bench_bins(text: &str) -> Vec<String> {
    let words: Vec<&str> = text.split_whitespace().collect();
    let mut bins = Vec::new();
    for (i, pair) in words.windows(2).enumerate() {
        if pair != ["-p", "dcode-bench"] {
            continue;
        }
        let mut rest = words[i + 2..].iter();
        while let Some(&flag) = rest.next() {
            if flag == "--bin" {
                let name = rest.next().map_or("", |w| {
                    w.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                });
                bins.push(name.to_string());
                break;
            }
            if !flag.starts_with("--") {
                break;
            }
        }
    }
    bins
}

#[test]
fn documented_bins_exist_and_no_doc_runs_cargo_bench() {
    let root = repo_root();
    let bin_dir = root.join("crates/bench/src/bin");
    let mut checked = 0;
    let mut wrong = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        for name in bench_bins(&text) {
            checked += 1;
            if !bin_dir.join(format!("{name}.rs")).is_file() {
                wrong.push(format!(
                    "{doc}: `--bin {name}` is not in crates/bench/src/bin"
                ));
            }
        }
        for (n, line) in text.lines().enumerate() {
            if line.contains("cargo bench") {
                wrong.push(format!("{doc}:{}: says to run `cargo bench`", n + 1));
            }
        }
    }
    // README alone lists every figure and study bin: an empty scan means
    // the parser, not the docs, is wrong.
    assert!(checked >= 20, "found only {checked} `--bin` references");
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
