#![warn(missing_docs)]
//! # dcode-codec
//!
//! The byte-level erasure-coding engine of the D-Code reproduction — the
//! workspace's stand-in for the Jerasure 1.2 library the paper builds on.
//! Generic over any [`dcode_core::layout::CodeLayout`]:
//!
//! * [`xor`] — `u64`-lane XOR kernels with set-form (overwrite) and up to
//!   8-wide fold tiers;
//! * [`stripe`] — in-memory stripe storage ([`Stripe`]);
//! * [`mod@encode`] — full-stripe encoding, plus the `verify_parities`
//!   consistency check;
//! * [`schedule`] — the plan compiler and the one sequential executor:
//!   layouts and recovery plans lower to flat [`XorProgram`]s (a sequence
//!   of ops in contiguous index arrays, no per-op allocation), and
//!   [`XorProgram::run`] replays them tile-major — every op over one
//!   cache-sized byte range before the range advances, so each source
//!   block streams through cache once however many equations read it;
//! * [`tile`] — runtime tile-size selection for that executor (a one-shot
//!   calibration probe);
//! * [`bulk`] — many stripes through one program over the worker pool
//!   ([`encode_stripes`], [`recover_stripes`]): chunking and panic
//!   restore only, each stripe replays through [`XorProgram::run`];
//! * [`cache`] — the [`ScheduleCache`]: memoized compiled programs and
//!   recovery subprograms keyed by layout fingerprint, so steady-state
//!   encode/recover paths never recompile;
//! * [`decode`] — replay of symbolic [`dcode_core::decoder::RecoveryPlan`]s
//!   over real blocks;
//! * [`update`] — read-modify-write partial-stripe writes with cascading
//!   delta propagation (the I/O behaviour Figures 4–5 measure);
//! * [`bitmatrix`] — the Jerasure-style GF(2) generator-matrix backend,
//!   cross-checked against the equation-driven encoder.
//!
//! ## Quick example
//!
//! ```
//! use dcode_core::dcode::dcode;
//! use dcode_codec::{Stripe, encode::encode, decode::recover_columns};
//!
//! let code = dcode(7).unwrap();
//! let payload: Vec<u8> = (0..code.data_len() * 16).map(|i| i as u8).collect();
//! let mut stripe = Stripe::from_data(&code, 16, &payload);
//! encode(&code, &mut stripe);
//!
//! // Lose two disks, rebuild, and the payload is intact.
//! recover_columns(&code, &mut stripe, &[2, 3]).unwrap();
//! assert_eq!(stripe.data_bytes(&code), payload);
//! ```

pub mod bitmatrix;
pub mod bulk;
pub mod cache;
pub mod decode;
pub mod encode;
pub mod schedule;
pub mod stripe;
pub mod tile;
pub mod update;
pub mod xor;

pub use bitmatrix::{encode_with_matrix, generator_matrix, BitMatrix};
pub use bulk::{encode_stripes, recover_stripes, run_batch};
pub use cache::{schedule_stats, CacheStats, CompiledRecovery, ScheduleCache};
pub use decode::{apply_plan, apply_plan_naive, recover_columns};
pub use encode::{encode, encode_naive, verify_parities};
pub use schedule::XorProgram;
pub use stripe::Stripe;
pub use tile::fused_tile_bytes;
pub use update::{reconstruct_write_ios, write_logical, WriteReceipt};
