#![warn(missing_docs)]
//! # dcode-verify
//!
//! Static verification for the codec's compiled XOR schedules. Since PR 1
//! every hot path — encode, decode replay, parity update, bulk stripes —
//! runs through a compiled [`XorProgram`](dcode_codec::XorProgram), so a
//! single schedule-compiler bug would silently corrupt every stripe, and
//! byte-level property tests only *sample* that failure mode. This crate
//! closes the gap with proofs: every block is modeled as a GF(2) bit-vector
//! over the stripe's data symbols ([`sym::SymVec`]), where XOR-only byte
//! code is mirrored exactly, so one symbolic replay covers every payload
//! and block size at once.
//!
//! Three passes, one [`Diagnostic`] vocabulary:
//!
//! * **Equivalence** ([`equiv`]) — replay a compiled encode or recovery
//!   program symbolically and prove every block ends at the value the
//!   layout's generator matrix demands.
//! * **Static race check** ([`race`]) — prove every dependency level is
//!   hazard-free (no op reads or writes another same-level op's target),
//!   so the ops of a level are independent, as the analyzer's
//!   critical-path bound assumes.
//! * **Schedule lints** ([`lint`]) — dead ops, duplicate / even-multiplicity
//!   sources, self-referencing targets (which the detach-based executor
//!   would turn into runtime panics), and non-minimal level placement.
//!
//! [`report::verify_layout`] drives everything for one layout: MDS rank
//! (`dcode_core::mds`), the encode program, and all `C(disks, 2)`
//! two-column recovery programs. `dcode-cli verify --all` runs it over the whole code
//! registry; CI fails on any diagnostic.
//!
//! ```
//! use dcode_core::dcode::dcode;
//! use dcode_verify::verify_layout;
//!
//! let report = verify_layout(&dcode(7).unwrap());
//! assert!(report.is_clean());
//! ```

pub mod diag;
pub mod equiv;
pub mod lint;
pub mod race;
pub mod report;
pub mod sym;

pub use diag::{DiagKind, Diagnostic, Severity};
pub use equiv::{
    intended_state, run_symbolic, verify_encode_program, verify_plan_program, verify_subprogram,
};
pub use lint::lint;
pub use race::check_levels;
pub use report::{verify_layout, VerifyReport};
pub use sym::SymVec;
