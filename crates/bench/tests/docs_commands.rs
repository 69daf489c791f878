//! The docs a reader follows to run things name only studies and commands
//! that exist. README.md, DESIGN.md, EXPERIMENTS.md and the verify skill
//! are the places that tell a reader what to run; every `-p dcode-bench
//! -- NAME` in them must name a study in `dcode_bench::REGISTRY` (or
//! `all`), no `-p dcode-bench --bin NAME` may survive the per-study
//! binaries, and none of them may send the reader to `cargo bench` — this
//! crate has no benches; throughput is `benchmark/`'s job. Every `-p
//! dcode-cli -- CMD` in them and in the CI workflow must name a command
//! the CLI's usage text lists.

use dcode_bench::REGISTRY;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `-p PACKAGE [--flag …] [--bin BIN] [-- NAME]`, across line
/// breaks and with markdown and shell punctuation stripped from `BIN` and
/// `NAME`: `(BIN, NAME)`, either empty when absent. A run that forwards
/// its arguments (`-- "$@"`) names nothing and is skipped.
fn runs(text: &str, package: &str) -> Vec<(String, String)> {
    let word = |w: Option<&&str>| {
        w.map_or("", |w| {
            w.trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        })
        .to_string()
    };
    let words: Vec<&str> = text.split_whitespace().collect();
    let mut runs = Vec::new();
    for (i, pair) in words.windows(2).enumerate() {
        if pair != ["-p", package] {
            continue;
        }
        let (mut bin, mut name) = (String::new(), String::new());
        let mut rest = words[i + 2..].iter();
        while let Some(&flag) = rest.next() {
            if flag == "--" {
                name = word(rest.next());
                break;
            }
            if flag == "--bin" {
                bin = word(rest.next());
            } else if !flag.starts_with("--") {
                break;
            }
        }
        if !(bin.is_empty() && name.is_empty()) {
            runs.push((bin, name));
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
        for (bin, name) in runs(&text, "dcode-bench") {
            checked += 1;
            if !bin.is_empty() {
                wrong.push(format!(
                    "{doc}: `--bin {bin}`: dcode-bench has one binary; run `-- {bin}`"
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
fn documented_cli_commands_exist() {
    let root = repo_root();
    let main = std::fs::read_to_string(root.join("crates/cli/src/main.rs")).expect("main.rs");
    let usage = main
        .split_once("const USAGE: &str = \"")
        .and_then(|(_, rest)| rest.split_once("\";"))
        .expect("the CLI's USAGE text")
        .0;
    let mut checked = 0;
    let mut wrong = Vec::new();
    for doc in DOCS.iter().chain([&".github/workflows/ci.yml"]) {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        for (_, cmd) in runs(&text, "dcode-cli") {
            checked += 1;
            if cmd.is_empty() || !usage.contains(&format!("  dcode {cmd} ")) {
                wrong.push(format!(
                    "{doc}: `-- {cmd}` is not a command in the CLI's usage"
                ));
            }
        }
    }
    // CI alone runs verify, chaos, crash-sim and race.
    assert!(checked >= 10, "found only {checked} `dcode-cli` runs");
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn the_scan_reads_every_form() {
    let text = "cargo run --release -p dcode-bench -- fig4 --seed 7\n\
                `cargo run -p dcode-bench\n--bin fig5`\n\
                cargo run -p dcode-cli --bin dcode -- crash-sim --all\n\
                run() { cargo run -q -p dcode-cli -- \"$@\"; }";
    assert_eq!(
        runs(text, "dcode-bench"),
        [
            (String::new(), "fig4".to_string()),
            ("fig5".to_string(), String::new())
        ]
    );
    assert_eq!(
        runs(text, "dcode-cli"),
        [("dcode".to_string(), "crash-sim".to_string())]
    );
}
