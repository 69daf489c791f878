#![warn(missing_docs)]
//! # dcode-faults
//!
//! The fault-tolerant disk layer under the D-Code reproduction's array
//! stack. The coding theory above this crate assumes a binary failure
//! model — a disk is present or absent — but real RAID-6 deployments face
//! the mixed modes the SD-codes and "Beyond RAID 6" literature documents:
//! individual sectors die, writes tear mid-block, bits rot silently, and
//! devices stall before they fail. This crate models all of that:
//!
//! * [`backend`] — the [`DiskBackend`] trait (block read/write/flush with
//!   typed [`DiskError`]s) and the in-memory [`MemBackend`];
//! * [`file`](mod@file) — [`FileBackend`], a file-per-disk backend doing seek-based
//!   per-block I/O (no whole-disk buffering), with a degraded-tolerant
//!   open (an unusable disk file is a dead disk) and replace-by-rename
//!   for rebuilt disks;
//! * [`inject`] — [`FaultInjector`], a deterministic wrapper driven by a
//!   seeded [`FaultPlan`]: transient errors, permanently bad sectors, torn
//!   writes, silent bit flips, and latency spikes, plus scheduled
//!   one-shot faults for reproducible chaos scenarios;
//! * [`counting`] — [`CountingBackend`], a pass-through that counts
//!   reads, writes and flushes per disk, for checking issued I/O against
//!   a model;
//! * [`crc`] — the CRC32 (IEEE) block checksum that converts silent
//!   corruption into detectable erasures one layer up;
//! * [`crash`] — deterministic crash points: [`FaultInjector::arm_crash`]
//!   unwinds the stack with a [`CrashPanic`] after exactly *n* writes,
//!   [`catch_crash`] catches it, and the injector's volatile write-cache
//!   mode drops un-flushed writes at the cut — the machinery behind the
//!   write-hole crash sweep;
//! * [`shared`] — [`SharedInjector`], a cloneable handle to one injector,
//!   so a harness keeps its grip on the medium across the crash unwind.
//!
//! Everything is deterministic per seed: a chaos run that finds a bug is
//! a regression test forever.

pub mod backend;
pub mod counting;
pub mod crash;
pub mod crc;
pub mod file;
pub mod inject;
pub mod shared;

pub use backend::{DiskBackend, DiskError, MemBackend};
pub use counting::{CountingBackend, IoCounts};
pub use crash::{catch_crash, silence_crash_panics, CrashPanic};
pub use crc::crc32;
pub use file::{disk_file_name, DiskProbe, FileBackend};
pub use inject::{FaultInjector, FaultKind, FaultPlan, FaultStats, ScheduledFault};
pub use shared::SharedInjector;
