#![warn(missing_docs)]
//! # dcode-disksim
//!
//! The hardware substitution for the paper's read-performance experiments
//! (Section V): the authors ran on a 16-disk array of Seagate Savvio 10K.3
//! drives; we simulate that array with a first-order service-time
//! [`mod@model`], a parallel [`mod@array`] request model, and the paper's
//! [`experiment`] protocol (2000 normal-mode reads; 200 degraded-mode reads
//! per failure case). See DESIGN.md §6 for why this substitution preserves
//! the mechanisms Figures 6–7 measure; `dcode-bench -- fig6` and `fig7`
//! run the protocol at full size.
//!
//! ## Quick example
//!
//! ```
//! use dcode_core::dcode::dcode;
//! use dcode_disksim::experiment::{normal_read_speed, ExperimentParams};
//!
//! let code = dcode(7).unwrap();
//! let params = ExperimentParams { normal_trials: 100, ..Default::default() };
//! let speed = normal_read_speed(&code, params, 42);
//! assert!(speed.mb_s > 0.0);
//! ```

pub mod array;
pub mod experiment;
pub mod latency;
pub mod model;
pub mod queue;
pub mod rebuild;
pub mod reliability;

pub use array::ArraySim;
pub use experiment::{
    data_disks, degraded_read_speed, normal_read_speed, ExperimentParams, ReadSpeed,
};
pub use latency::{degraded_read_latency, normal_read_latency, summarize, LatencyStats};
pub use model::{count_runs, Coalescing, DiskModel};
pub use queue::{load_sweep, simulate_load, LoadPoint};
pub use rebuild::{average_rebuild, estimate_rebuild, RebuildEstimate, RebuildScheme};
pub use reliability::{estimate as estimate_reliability, ReliabilityEstimate, ReliabilityParams};
