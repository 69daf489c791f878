#![warn(missing_docs)]
//! # dcode — a reproduction of the D-Code RAID-6 array code
//!
//! Facade crate for the full reproduction of *Fu & Shu, "D-Code: An
//! Efficient RAID-6 Code to Optimize I/O Loads and Read Performance",
//! IEEE IPDPS 2015*. Each member crate is re-exported under a short name:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `dcode-core` | grids, equations, layouts, peeling decoder, MDS checker, metrics, the D-Code constructions |
//! | [`baselines`] | `dcode-baselines` | RDP, EVENODD, X-Code, H-Code, HDP, and the code registry |
//! | [`codec`] | `dcode-codec` | byte-level encode/decode/update engine, GF(2) bit-matrix backend |
//! | [`iosim`] | `dcode-iosim` | `<S,L,T>` workloads, per-disk I/O accounting, LF/Cost metrics (Figures 4–5) |
//! | [`disksim`] | `dcode-disksim` | simulated Savvio-class disk array, read-speed experiments (Figures 6–7) |
//! | [`recovery`] | `dcode-recovery` | conventional vs hybrid single-disk rebuild optimization |
//! | [`mod@array`] | `dcode-array` | multi-stripe array: rotation, degraded service, rebuild, scrubbing, resilient backend-driven array, chaos soak |
//! | [`faults`] | `dcode-faults` | disk backends (memory, file), typed disk errors, CRC32, deterministic fault injection |
//! | [`verify`] | `dcode-verify` | static checker for compiled XOR programs: symbolic GF(2) equivalence, schedule and peephole lints, closed-form cost claims, per-disk I/O footprints |
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and the
//! per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Thirty seconds of D-Code
//!
//! ```
//! use dcode::core::dcode::dcode;
//! use dcode::codec::{encode, recover_columns, Stripe};
//!
//! let code = dcode(7).unwrap();
//! let payload = vec![42u8; code.data_len() * 512];
//! let mut stripe = Stripe::from_data(&code, 512, &payload);
//! encode(&code, &mut stripe);
//! recover_columns(&code, &mut stripe, &[0, 4]).unwrap();
//! assert_eq!(stripe.data_bytes(&code), payload);
//! ```

pub use dcode_array as array;
pub use dcode_baselines as baselines;
pub use dcode_codec as codec;
pub use dcode_core as core;
pub use dcode_disksim as disksim;
pub use dcode_faults as faults;
pub use dcode_iosim as iosim;
pub use dcode_recovery as recovery;
pub use dcode_verify as verify;
