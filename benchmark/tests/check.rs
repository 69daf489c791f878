//! The package's own `cargo test`: the `run --check` smoke. It runs every
//! workload once with tracing off and once with tracing on (small geometry,
//! about ten seconds in all) and asserts that each metric `BENCHMARK.json`
//! names is printed exactly once, with its unit and a finite value.

use std::process::Command;

#[test]
fn every_promised_metric_is_printed_once() {
    let out = Command::new(env!("CARGO_BIN_EXE_dcode-benchmark"))
        .args(["run", "--check"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
