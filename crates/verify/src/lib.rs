#![warn(missing_docs)]
//! # dcode-verify
//!
//! Static checks for the codec's compiled XOR schedules. Every hot path —
//! encode, decode replay, parity update, bulk stripes — runs through a
//! compiled [`XorProgram`](dcode_codec::XorProgram), a plain sequence of
//! ops, so a single schedule-compiler bug would silently corrupt every
//! stripe, and byte-level property tests only *sample* that failure mode.
//! This crate closes the gap without executing a single XOR: every block
//! is modeled as a GF(2) bit-vector over the stripe's data symbols
//! ([`sym::SymVec`]), where XOR-only byte code is mirrored exactly, so one
//! symbolic replay covers every payload and block size at once; and every
//! cost the paper claims is counted on the same programs.
//!
//! The passes, one [`Diagnostic`] vocabulary:
//!
//! * **Equivalence** ([`equiv`]) — replay a compiled encode or recovery
//!   program symbolically and prove every block ends at the value the
//!   layout's generator matrix demands.
//! * **Schedule lints** ([`lint`](mod@lint)) — out-of-range indices, dead
//!   ops, duplicate / even-multiplicity sources, and self-referencing
//!   targets (which the detach-based executor would turn into runtime
//!   panics).
//! * **Peephole lints** ([`peephole`](mod@peephole)) — duplicate
//!   subexpressions (CSE opportunities), never-read results, and per-op
//!   working-set estimates against [`dcode_codec::xor::TILE_BYTES`].
//! * **Op-count metrics** ([`cost`]) and **static I/O footprints**
//!   ([`footprint`]) — XORs per data element and per lost element, and
//!   per-disk reads and writes folded into the paper's load-balancing
//!   factor through `dcode-iosim`'s metric (the differential tests
//!   cross-check both against dynamic runs), asserted against the closed
//!   forms of the paper's §III-D ([`claims`]).
//!
//! [`report::verify_layout`] drives everything for one layout: MDS rank
//! (`dcode_core::mds`), then the encode program, all `C(disks, 2)`
//! two-column recovery programs and every single-column rebuild program,
//! each compiled once and put through every pass. `dcode verify --all`
//! runs it over the whole code registry; CI fails on any diagnostic or
//! missed claim.
//!
//! ```
//! use dcode_core::dcode::dcode;
//! use dcode_verify::verify_layout;
//!
//! let report = verify_layout(&dcode(7).unwrap());
//! assert!(report.is_clean(), "{report}");
//! // D-Code p=7: 2 − 2/(p−2) = 1.6 XORs per data element, statically.
//! assert!((report.encode.xors_per_data_element - 1.6).abs() < 1e-9);
//! ```

pub mod claims;
pub mod cost;
pub mod diag;
pub mod equiv;
pub mod footprint;
pub mod lint;
pub mod peephole;
pub mod report;
pub mod sym;

pub use claims::{closed_forms, ClaimCheck, ClosedForms, LoadBalance};
pub use cost::{encode_xors_per_data_element, program_xor_cost};
pub use diag::{DiagKind, Diagnostic, Severity};
pub use equiv::{
    intended_state, run_symbolic, verify_encode_program, verify_plan_program, verify_subprogram,
};
pub use footprint::{degraded_read_footprint, program_footprint, StaticFootprint};
pub use lint::lint;
pub use peephole::{peephole, WORKING_SET_BUDGET_BYTES};
pub use report::{verify_layout, EncodeAnalysis, RecoveryAnalysis, UpdateAnalysis, VerifyReport};
pub use sym::SymVec;
