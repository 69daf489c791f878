//! # dcode-bench
//!
//! Shared infrastructure for the figure-regeneration binaries (`fig1` …
//! `fig7`, `features_table`, `recovery_savings`) and the extension
//! studies beside them in `src/bin`. Each binary prints the corresponding
//! paper figure's series as a table and writes CSV under
//! `target/figures/`. Throughput is measured by the repo's one benchmark,
//! `benchmark/`, not here.

use std::fs;
use std::path::PathBuf;

pub mod plot;
pub mod table;

/// Primes the paper evaluates.
pub const PRIMES: [usize; 4] = [5, 7, 11, 13];

/// Default RNG seed for figure binaries; override with `--seed N`.
pub const DEFAULT_SEED: u64 = 20150525; // IPDPS'15 conference date

/// Parse `--seed N` from argv, defaulting to [`DEFAULT_SEED`].
pub fn seed_from_args() -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// Where figure CSVs land.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Write one CSV file into `target/figures/`, returning its path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = figures_dir().join(name);
    let mut out = String::with_capacity(rows.len() * 32 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for row in rows {
        out.push_str(row);
        out.push('\n');
    }
    fs::write(&path, out).expect("write figure CSV");
    path
}

pub mod prelude {
    //! Convenience re-exports for the figure binaries.
    pub use crate::plot::{BarChart, Series};
    pub use crate::table::Table;
    pub use crate::{figures_dir, seed_from_args, write_csv, DEFAULT_SEED, PRIMES};
    pub use dcode_baselines::registry::{build, CodeId, EVALUATED_CODES};
}
