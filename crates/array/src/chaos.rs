//! Chaos soak harness: a randomized op/fault schedule replayed against a
//! [`ResilientArray`] over a [`FaultInjector`], mirrored by a flat
//! in-memory oracle, asserting zero data loss within RAID-6 tolerance.
//!
//! The soak is fully deterministic for a given seed: the fault injector
//! and the op-mix generator are both seeded, and the headline events —
//! a mid-write power cut with remount, silent corruption, a bad-sector
//! shower that crosses the auto-fail threshold, two whole-disk kills at
//! once — are *placed* at fixed fractions of the schedule rather than
//! rolled, so every run exercises journal replay, checksum catches,
//! degraded reads, auto-failure, hot-spare attach, a joint two-slot
//! rebuild, and rebuild completion. The
//! probabilistic fault knobs (transient errors, torn writes, latency
//! spikes) stay on throughout to keep the retry and backoff paths
//! honest, and the whole run models a volatile write-back cache — an
//! acknowledged write that was never flushed is *lost* at the power cut.
//!
//! The crash event is placed *before* the at-rest corruption event on
//! purpose: a journaled remount re-seeds the expected CRCs from the
//! medium, so an unread corruption sitting on disk across a remount
//! would be ratified as expected content and read back as "clean"
//! garbage — the harness would misattribute it as data loss.

use crate::device::ArrayError;
use crate::journal::journal_blocks_per_disk;
use crate::resilient::{ResilientArray, ResilientStats, RetryPolicy, SlotState};
use crate::rotation::RotationScheme;
use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use dcode_faults::{catch_crash, FaultInjector, FaultPlan, FaultStats, MemBackend};
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

/// Knobs for one soak run.
#[derive(Copy, Clone, Debug)]
pub struct ChaosConfig {
    /// Seed driving both the fault plan and the op mix.
    pub seed: u64,
    /// Number of harness operations to replay.
    pub ops: usize,
    /// Stripes in the array under test.
    pub stripes: usize,
    /// Bytes per element block.
    pub block_size: usize,
    /// Hot spares configured beyond the code's disk count.
    pub spares: usize,
    /// Hard errors a slot absorbs before auto-failing.
    pub fail_threshold: usize,
}

impl ChaosConfig {
    /// The standard soak shape at a given seed and op count.
    pub fn new(seed: u64, ops: usize) -> Self {
        ChaosConfig {
            seed,
            ops,
            stripes: 12,
            block_size: 64,
            spares: 3,
            fail_threshold: 6,
        }
    }
}

/// Outcome of one soak run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Code name under test.
    pub code: String,
    /// Harness operations replayed.
    pub ops: usize,
    /// Logical read ops issued.
    pub reads: u64,
    /// Logical write ops issued.
    pub writes: u64,
    /// Reads whose bytes did not match the oracle — must be zero.
    pub data_loss: u64,
    /// Reads/writes rejected with an array error — must be zero while the
    /// schedule stays within RAID-6 tolerance.
    pub op_errors: u64,
    /// Array-layer counters (retries, degraded reads, checksum catches,
    /// rebuilds, ...).
    pub arr: ResilientStats,
    /// Injector-side counters (faults actually fired).
    pub faults: FaultStats,
    /// Whether every started rebuild ran to completion by the end.
    pub rebuild_done: bool,
    /// Power-cut-and-remount events executed (journal replay exercised).
    pub crash_remounts: u64,
}

impl ChaosReport {
    /// A soak passes when nothing was lost, no op failed, and the run
    /// exercised every headline event at least once — including at least
    /// one mid-write power cut that fired and was remounted through the
    /// journal.
    pub fn passed(&self) -> bool {
        self.data_loss == 0
            && self.op_errors == 0
            && self.rebuild_done
            && self.arr.auto_fails >= 1
            && self.arr.spares_attached >= 1
            && self.arr.rebuilds_completed >= 1
            && self.arr.joint_rebuild_stripes >= 1
            && self.arr.checksum_catches >= 1
            && self.arr.degraded_reads >= 1
            && self.crash_remounts >= 1
            && self.faults.crashes >= 1
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} ops ({} reads, {} writes) — {}",
            self.code,
            self.ops,
            self.reads,
            self.writes,
            if self.passed() { "OK" } else { "FAILED" }
        )?;
        writeln!(f, "  data loss events     {}", self.data_loss)?;
        writeln!(f, "  op errors            {}", self.op_errors)?;
        writeln!(f, "  retries              {}", self.arr.retries)?;
        writeln!(f, "  backoff (virtual µs) {}", self.arr.backoff_us)?;
        writeln!(f, "  degraded reads       {}", self.arr.degraded_reads)?;
        writeln!(f, "  checksum catches     {}", self.arr.checksum_catches)?;
        writeln!(f, "  read repairs         {}", self.arr.read_repairs)?;
        writeln!(f, "  auto-failed slots    {}", self.arr.auto_fails)?;
        writeln!(f, "  spares attached      {}", self.arr.spares_attached)?;
        writeln!(
            f,
            "  rebuilds completed   {} ({} blocks from {} reads; {} survivor passes, {} joint)",
            self.arr.rebuilds_completed,
            self.arr.rebuilt_blocks,
            self.arr.rebuild_read_blocks,
            self.arr.rebuild_stripes,
            self.arr.joint_rebuild_stripes
        )?;
        writeln!(
            f,
            "  crash remounts       {} ({} crashes fired, {} cached writes lost)",
            self.crash_remounts, self.faults.crashes, self.faults.writes_dropped
        )?;
        writeln!(
            f,
            "  injected faults      {} transient, {} torn, {} bad sectors, {} corruptions, {} disk kills",
            self.faults.transient_reads + self.faults.transient_writes,
            self.faults.torn_writes,
            self.faults.bad_sectors,
            self.faults.silent_corruptions,
            self.faults.disk_fails
        )?;
        write!(
            f,
            "  virtual I/O time     {} µs ({} latency spikes)",
            self.faults.latency_us, self.faults.latency_spikes
        )
    }
}

type Dut = ResilientArray<FaultInjector<MemBackend>>;

/// Replay a seeded chaos schedule against `layout` and report what the
/// resilience machinery did. Panics only on harness bugs; array-level
/// trouble lands in the report.
pub fn soak(layout: CodeLayout, cfg: &ChaosConfig) -> ChaosReport {
    let code = layout.name().to_string();
    let rows = layout.rows();
    let disks = layout.disks();
    let data_len = layout.data_len();
    let rotation = RotationScheme::PerStripe;

    let mut plan = FaultPlan::quiet(cfg.seed);
    plan.p_transient_read = 0.01;
    plan.p_transient_write = 0.01;
    plan.p_torn_write = 0.004;
    plan.p_latency_spike = 0.01;
    plan.volatile_cache = true;
    let per_disk = cfg.stripes * rows + journal_blocks_per_disk(&layout, cfg.block_size);
    let backend = FaultInjector::new(
        MemBackend::new(disks + cfg.spares, per_disk, cfg.block_size),
        plan,
    );
    let remount_layout = layout.clone();
    let mut arr = Dut::format_journaled(
        layout,
        cfg.block_size,
        cfg.stripes,
        rotation,
        backend,
        RetryPolicy::default(),
        cfg.fail_threshold,
    );

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x00C0_FFEE);
    let mut oracle = vec![0u8; arr.capacity_bytes()];
    let capacity = arr.capacity_elements();
    let bs = cfg.block_size;

    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut data_loss = 0u64;
    let mut op_errors = 0u64;
    let mut crash_remounts = 0u64;

    // Placed events: the power cut first (see the module doc for why it
    // must precede the corruption), corruption early, the sector shower
    // at a third, two whole-disk kills at two thirds (leaving time for
    // the joint rebuild).
    let corrupt_at = (cfg.ops / 8).max(1);
    let crash_at = (cfg.ops / 12).min(corrupt_at.saturating_sub(1));
    let shower_at = (cfg.ops / 3).max(2);
    let kill_at = (2 * cfg.ops / 3).max(3);

    // Find data blocks of a slot: block b of slot s holds stripe b/rows,
    // row b%rows, logical column given by the rotation.
    let data_blocks_of = |arr: &Dut, slot: usize| -> Vec<usize> {
        (0..cfg.stripes * rows)
            .filter(|&b| {
                let cell = Cell::new(b % rows, rotation.to_logical(b / rows, slot, disks));
                arr.layout().kind(cell).is_data()
            })
            .collect()
    };
    let element_of = |arr: &Dut, slot: usize, block: usize| -> usize {
        let stripe = block / rows;
        let cell = Cell::new(block % rows, rotation.to_logical(stripe, slot, disks));
        stripe * data_len + arr.layout().logical_of(cell).expect("data cell")
    };

    let checked_read = |arr: &mut Dut,
                        oracle: &[u8],
                        start: usize,
                        count: usize,
                        reads: &mut u64,
                        data_loss: &mut u64,
                        op_errors: &mut u64| {
        *reads += 1;
        match arr.read(start, count) {
            Ok(bytes) => {
                if bytes != oracle[start * bs..(start + count) * bs] {
                    *data_loss += 1;
                }
            }
            Err(_) => *op_errors += 1,
        }
    };

    for op in 0..cfg.ops {
        if op == crash_at && arr.failed_slots().is_empty() && arr.rebuild_progress().is_empty() {
            // The power goes out mid-write: arm a crash a few backend
            // writes into a random logical write, let it unwind, drop
            // whatever the volatile cache still held, and remount the
            // medium through the journaled attach. The crashed write was
            // never acknowledged, so the oracle accepts old *or* new
            // content for each element it touched — anything else is
            // loss.
            let start = rng.gen_range(0..capacity);
            let count = rng.gen_range(1..=(capacity - start).min(2 * data_len));
            let mut bytes = vec![0u8; count * bs];
            rng.fill_bytes(&mut bytes);
            let crash_in = rng.gen_range(0..12u64);
            arr.backend_mut().arm_crash(crash_in);
            writes += 1;
            let outcome = {
                let a = &mut arr;
                let b = &bytes;
                catch_crash(move || a.write(start, b))
            };
            match &outcome {
                Some(Ok(())) => {
                    // The op finished before the armed index: an acked
                    // write, so the oracle takes it — it must survive.
                    arr.backend_mut().disarm_crash();
                    oracle[start * bs..(start + count) * bs].copy_from_slice(&bytes);
                }
                Some(Err(_)) => {
                    arr.backend_mut().disarm_crash();
                    op_errors += 1;
                }
                None => {} // crashed mid-write, as intended
            }
            let mut medium = arr.into_backend();
            medium.power_cycle();
            arr = Dut::attach_journaled(
                remount_layout.clone(),
                cfg.block_size,
                cfg.stripes,
                rotation,
                medium,
                RetryPolicy::default(),
                cfg.fail_threshold,
            )
            .expect("chaos remount after power cut");
            crash_remounts += 1;
            if outcome.is_none() {
                // Resolve the suspect elements against the remounted
                // array: ratify whichever of old/new actually landed.
                for e in start..start + count {
                    reads += 1;
                    match arr.read(e, 1) {
                        Ok(got) => {
                            let new = &bytes[(e - start) * bs..(e - start + 1) * bs];
                            if got == new {
                                oracle[e * bs..(e + 1) * bs].copy_from_slice(new);
                            } else if got != oracle[e * bs..(e + 1) * bs] {
                                data_loss += 1;
                            }
                        }
                        Err(_) => op_errors += 1,
                    }
                }
            }
        }
        if op == corrupt_at {
            // Silent at-rest corruption on two healthy slots, immediately
            // read back so the checksum layer must catch both.
            for slot in [0usize, 1] {
                let block = data_blocks_of(&arr, slot)[slot];
                let disk = arr.slot_disk(slot);
                arr.backend_mut().corrupt_at_rest(disk, block);
                let elem = element_of(&arr, slot, block);
                checked_read(
                    &mut arr,
                    &oracle,
                    elem,
                    1,
                    &mut reads,
                    &mut data_loss,
                    &mut op_errors,
                );
            }
        }
        if op == shower_at {
            // A shower of bad sectors on one slot — more than the error
            // threshold — then a patrol read over everything. The patrol
            // degrades through the dead sectors, trips the threshold
            // mid-pass, auto-fails the slot, and attaches a spare.
            let victim = (0..disks)
                .find(|&s| arr.slot_states()[s] == SlotState::Healthy)
                .expect("some healthy slot");
            let blocks = data_blocks_of(&arr, victim);
            let disk = arr.slot_disk(victim);
            for &b in blocks.iter().take(cfg.fail_threshold + 2) {
                arr.backend_mut().mint_bad_sector(disk, b);
            }
            for start in (0..capacity).step_by(data_len) {
                let count = data_len.min(capacity - start);
                checked_read(
                    &mut arr,
                    &oracle,
                    start,
                    count,
                    &mut reads,
                    &mut data_loss,
                    &mut op_errors,
                );
            }
        }
        if op == kill_at
            && arr.failed_slots().is_empty()
            && arr.rebuild_progress().is_empty()
            && arr.spares_remaining() >= 2
        {
            // Two whole-device deaths, each discovered on the next touch:
            // both slots get a spare at stripe 0 and rebuild side by side.
            let first = rng.gen_range(0..disks);
            let second = (first + rng.gen_range(1..disks)) % disks;
            for victim in [first, second] {
                let disk = arr.slot_disk(victim);
                arr.backend_mut().fail_disk(disk);
                let elem = element_of(&arr, victim, data_blocks_of(&arr, victim)[0]);
                checked_read(
                    &mut arr,
                    &oracle,
                    elem,
                    1,
                    &mut reads,
                    &mut data_loss,
                    &mut op_errors,
                );
            }
        }

        // The random op mix: mostly reads, a third writes, the rest
        // rebuild progress.
        let roll = rng.gen_range(0u32..100);
        if roll < 55 {
            let start = rng.gen_range(0..capacity);
            let count = rng.gen_range(1..=(capacity - start).min(2 * data_len));
            checked_read(
                &mut arr,
                &oracle,
                start,
                count,
                &mut reads,
                &mut data_loss,
                &mut op_errors,
            );
        } else if roll < 90 {
            let start = rng.gen_range(0..capacity);
            let count = rng.gen_range(1..=(capacity - start).min(2 * data_len));
            let mut bytes = vec![0u8; count * bs];
            rng.fill_bytes(&mut bytes);
            writes += 1;
            match arr.write(start, &bytes) {
                Ok(()) => oracle[start * bs..(start + count) * bs].copy_from_slice(&bytes),
                Err(_) => op_errors += 1,
            }
        } else if let Err(ArrayError::TooManyFailures { .. }) = arr.rebuild_step(rows) {
            op_errors += 1;
        }
    }

    // Drain: finish any in-flight rebuild, then one last full patrol
    // against the oracle.
    let mut drain_budget = 4 * cfg.stripes * rows;
    while !arr.rebuild_progress().is_empty() && drain_budget > 0 {
        if arr.rebuild_step(rows).is_err() {
            op_errors += 1;
            break;
        }
        drain_budget -= 1;
    }
    for start in (0..capacity).step_by(data_len) {
        let count = data_len.min(capacity - start);
        checked_read(
            &mut arr,
            &oracle,
            start,
            count,
            &mut reads,
            &mut data_loss,
            &mut op_errors,
        );
    }

    let rebuild_done = arr.rebuild_progress().is_empty()
        && arr.stats().rebuilds_completed >= arr.stats().spares_attached;
    ChaosReport {
        code,
        ops: cfg.ops,
        reads,
        writes,
        data_loss,
        op_errors,
        arr: arr.stats().clone(),
        faults: arr.backend_mut().stats().clone(),
        rebuild_done,
        crash_remounts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_core::dcode::dcode;

    #[test]
    fn small_soak_hits_every_headline_event() {
        let report = soak(dcode(5).unwrap(), &ChaosConfig::new(1, 600));
        assert_eq!(report.data_loss, 0, "{report}");
        assert_eq!(report.op_errors, 0, "{report}");
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn soak_is_deterministic() {
        let a = soak(dcode(5).unwrap(), &ChaosConfig::new(9, 400));
        let b = soak(dcode(5).unwrap(), &ChaosConfig::new(9, 400));
        assert_eq!(a.arr, b.arr);
        assert_eq!(a.reads, b.reads);
        assert_eq!(a.data_loss, b.data_loss);
        assert_eq!(a.faults.transient_reads, b.faults.transient_reads);
    }
}
