#![warn(missing_docs)]
//! # dcode-array
//!
//! The multi-stripe array layer on top of the D-Code reproduction's coding
//! engine — what a filesystem or block device would actually mount:
//!
//! * [`resilient`] — the array: logical element addressing across
//!   stripes over a fault-injectable
//!   [`DiskBackend`](dcode_faults::DiskBackend), with a retry policy and
//!   backoff accounting, per-block CRC32 catching silent corruption,
//!   sector-level degraded reads, writes while degraded, error-threshold
//!   auto-fail, and hot-spare rebuild with a mid-rebuild-correct
//!   watermark;
//! * [`journal`] — the write-ahead parity intent journal closing the
//!   RAID-6 write hole: checksummed intent records, commit/retire
//!   lifecycle, and mount-time replay;
//! * [`crashsim`] — the exhaustive crash-point harness: every write-path
//!   operation crashed at every backend-write index, remounted, and
//!   verified for zero acknowledged-write loss and zero
//!   parity-inconsistent stripes;
//! * [`chaos`] — a seeded chaos soak harness replaying randomized
//!   op/fault schedules (including crash-and-remount events) against an
//!   in-memory oracle;
//! * [`device`] — the [`ElementIo`] trait the object store is written
//!   against, and [`ArrayError`];
//! * [`rotation`] — stripe-by-stripe logical→physical column rotation
//!   (the RAID-5-style global balancing the paper's Section II discusses);
//! * [`loadstudy`] — quantifies why rotation cannot fix an unbalanced code
//!   when stripe popularity is skewed (the paper's argument, measured);
//! * [`scrub`] — silent-corruption detection, localization, and repair
//!   using the two orthogonal parity families;
//! * [`objstore`] — a small object store whose index lives inside the
//!   array, demonstrating the stack end to end.
//!
//! ## Quick example
//!
//! ```
//! use dcode_array::{ResilientArray, RotationScheme};
//! use dcode_core::dcode::dcode;
//!
//! let mut array = ResilientArray::new(dcode(5).unwrap(), 512, 8, RotationScheme::PerStripe);
//! let data = vec![7u8; 20 * 512];
//! array.write(0, &data).unwrap();
//! array.fail_disk(3).unwrap();                    // a hot spare attaches
//! assert_eq!(array.read(0, 20).unwrap(), data);   // served degraded
//! array.write(5, &[9u8; 512]).unwrap();           // written degraded
//! while !array.rebuild_step(64).unwrap() {}       // rebuilt onto the spare
//! assert_eq!(array.read(5, 1).unwrap(), [9u8; 512]);
//! ```

pub mod chaos;
pub mod crashsim;
pub mod device;
pub mod journal;
pub mod loadstudy;
pub mod objstore;
pub mod resilient;
pub mod rotation;
pub mod scrub;

pub use chaos::{soak, ChaosConfig, ChaosReport};
pub use crashsim::{sweep, CrashOp, CrashSimConfig, CrashSweepReport};
pub use device::{ArrayError, ElementIo};
pub use journal::{
    journal_blocks_per_disk, scan_journal, JournalScan, JournalSpec, JournalState, ReplayOutcome,
    ReplaySummary, MIN_BLOCK_SIZE,
};
pub use loadstudy::{lf, physical_loads, StripeSkew};
pub use objstore::{ObjectStore, StoreError};
pub use resilient::{
    Array, JournalMutation, ResilientArray, ResilientStats, RetryPolicy, ScrubSummary, SlotState,
};
pub use rotation::RotationScheme;
pub use scrub::{failing_equations, scrub_stripe, ScrubReport};
