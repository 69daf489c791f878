#![warn(missing_docs)]
#![warn(clippy::missing_panics_doc)]
//! # dcode-core
//!
//! Core machinery and the paper's contribution for the reproduction of
//! *Fu & Shu, "D-Code: An Efficient RAID-6 Code to Optimize I/O Loads and
//! Read Performance", IEEE IPDPS 2015*.
//!
//! This crate contains:
//!
//! * the generic array-code model — [`grid`], [`equation`], [`layout`] —
//!   that every code in the workspace is expressed in;
//! * the peeling erasure [`decoder`] used for both real decoding (via
//!   `dcode-codec`) and I/O accounting (via `dcode-iosim`);
//! * the exhaustive [`mds`] verifier — recoverability as GF(2) rank, by
//!   the decoder's own Gauss-Jordan elimination — and the complexity
//!   [`metrics`] of Section III-D;
//! * the [`dcode`] module with three independent, tested-equal constructions
//!   of D-Code (closed-form equations (1)–(2), the procedural 4-step walks,
//!   and Theorem 1's X-Code column reordering), plus X-Code itself;
//! * terminal [`render`]ing of layouts (the paper's Figure 2) and a
//!   textual code [`spec`] format for defining custom codes at runtime.
//!
//! ## Quick example
//!
//! ```
//! use dcode_core::dcode::dcode;
//! use dcode_core::decoder::plan_column_recovery;
//! use dcode_core::mds::{columns_recoverable, verify_mds};
//!
//! let code = dcode(7).unwrap();           // 7-disk D-Code
//! verify_mds(&code).unwrap();             // tolerates any 2 disk failures
//! assert!(!columns_recoverable(&code, &[0, 1, 2])); // but not 3
//! let plan = plan_column_recovery(&code, &[2, 3]).unwrap();
//! assert_eq!(plan.erased.len(), 14);      // two full columns rebuilt
//! ```

pub mod analysis;
pub mod dcode;
pub mod decoder;
pub mod equation;
pub mod fnv;
pub mod grid;
pub mod layout;
pub mod mds;
pub mod metrics;
pub mod modmath;
pub mod render;
pub mod spec;

pub use analysis::{adjacent_sharing_probability, sharing_stats, SharingStats};
pub use dcode::{dcode as build_dcode, xcode as build_xcode, ConstructError, PAPER_PRIMES};
pub use decoder::{plan_column_recovery, plan_recovery, RecoveryPlan, RecoveryStep};
pub use equation::{Equation, EquationKind};
pub use fnv::Fnv1a;
pub use grid::{Cell, CellKind, Grid};
pub use layout::{CodeLayout, LayoutBuilder, LayoutError};
pub use mds::{fault_tolerance, verify_mds, MdsViolation};
pub use metrics::{measure, CodeMetrics};
pub use spec::{format_spec, parse_spec, SpecError};
