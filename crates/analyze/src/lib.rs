#![warn(missing_docs)]
//! # dcode-analyze
//!
//! Static analysis over the codec's *compiled* artifacts. `dcode-verify`
//! proves a compiled [`XorProgram`](dcode_codec::XorProgram) computes the
//! right bytes; this crate proves it computes them at the **cost the paper
//! promises** — without executing a single XOR. Four passes:
//!
//! * **Op-count metrics** ([`cost`]) — XORs per data element for the
//!   encode program, XORs per failed element across every compiled
//!   2-column recovery program, and parity touches per single-element
//!   update, asserted against the closed forms of the paper's §III-D
//!   ([`claims`]) for every registry code.
//! * **Static I/O footprints** ([`footprint`]) — per-disk distinct
//!   read/write counts a program issues, for encode, degraded-read
//!   subprograms, and full recovery plans, folded into the paper's
//!   load-balancing factor `LF` via `dcode-iosim`'s metric (so the static
//!   numbers and the dynamic simulation are directly comparable — the
//!   differential tests cross-check them).
//! * **Critical path** ([`critpath`]) — level-width analysis over the
//!   program's dependency levels, giving a static upper bound on the
//!   speedup any level-parallel replay of the program could reach.
//! * **Peephole lints** ([`peephole`]) — self-cancelling XOR pairs,
//!   duplicate subexpressions (CSE opportunities), dead scratch writes,
//!   never-read outputs, and per-level working-set estimates against
//!   [`dcode_codec::xor::TILE_BYTES`], all reported through
//!   `dcode-verify`'s machine-readable [`Diagnostic`](dcode_verify::Diagnostic)
//!   vocabulary.
//!
//! [`report::analyze_layout`] drives everything for one layout;
//! `dcode analyze --all --assert-claims` runs it over the whole registry
//! and CI fails on any claim miss or lint finding.
//!
//! ```
//! use dcode_analyze::analyze_layout;
//! use dcode_core::dcode::dcode;
//!
//! let report = analyze_layout(&dcode(7).unwrap());
//! assert!(report.is_clean(), "{report}");
//! // D-Code p=7: 2 − 2/(p−2) = 1.6 XORs per data element, statically.
//! assert!((report.encode.xors_per_data_element - 1.6).abs() < 1e-9);
//! ```

pub mod claims;
pub mod cost;
pub mod critpath;
pub mod footprint;
pub mod peephole;
pub mod report;

pub use claims::{closed_forms, ClaimCheck, ClosedForms, LoadBalance};
pub use cost::{encode_xors_per_data_element, program_xor_cost, update_parity_touches};
pub use critpath::{critical_path, CritPath};
pub use footprint::{
    degraded_read_footprint, encode_footprint, program_footprint, StaticFootprint,
};
pub use peephole::{analyze_program, peephole, working_set_diagnostics, WORKING_SET_BUDGET_BYTES};
pub use report::{
    analyze_layout, AnalysisReport, EncodeAnalysis, RecoveryAnalysis, UpdateAnalysis,
};
