//! The stripe-granular hot-spare rebuild, for every code in the registry:
//!
//! * a rebuild reproduces the failed slot's medium byte for byte and reads
//!   exactly what its recovery program needs — the minimum-read plan for
//!   one slot, each survivor once for two slots side by side — counted
//!   through a [`CountingBackend`];
//! * reads and writes are correct at every stripe watermark, with one
//!   slot rebuilding and with two;
//! * a slot that fails mid-rebuild catches up and is joined, a second
//!   failure without a second spare waits while the first rebuilds
//!   through the double erasure, and a third failure is a typed error
//!   that leaves rebuilt stripes alone.

use dcode_array::journal::journal_blocks_per_disk;
use dcode_array::resilient::{ResilientArray, RetryPolicy, SlotState};
use dcode_array::rotation::RotationScheme;
use dcode_array::ArrayError;
use dcode_baselines::registry::all_codes;
use dcode_codec::ScheduleCache;
use dcode_core::layout::CodeLayout;
use dcode_faults::{CountingBackend, MemBackend};
use dcode_recovery::optimal_rebuild;

const BLOCK: usize = 32;
const ROTATION: RotationScheme = RotationScheme::PerStripe;

type Counted = ResilientArray<CountingBackend<MemBackend>>;

fn payload(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(131) % 251) as u8)
        .collect()
}

/// A filled array of `stripes` stripes with `spares` hot spares.
fn filled(layout: &CodeLayout, stripes: usize, spares: usize, journaled: bool) -> Counted {
    let journal = if journaled {
        journal_blocks_per_disk(layout, BLOCK)
    } else {
        0
    };
    let blocks = stripes * layout.rows() + journal;
    let backend = CountingBackend::new(MemBackend::new(layout.disks() + spares, blocks, BLOCK));
    let format = if journaled {
        ResilientArray::format_journaled
    } else {
        ResilientArray::format
    };
    let policy = RetryPolicy::default();
    let mut arr = format(layout.clone(), BLOCK, stripes, ROTATION, backend, policy, 4);
    let data = payload(arr.capacity_bytes());
    arr.write(0, &data).unwrap();
    arr
}

/// The stripe blocks of every slot as they sit on the medium.
fn media(arr: &mut Counted) -> Vec<Vec<u8>> {
    let bytes = arr.stripes() * arr.layout().rows() * BLOCK;
    (0..arr.layout().disks())
        .map(|slot| {
            let disk = arr.slot_disk(slot);
            arr.backend_mut().inner_mut().disk_bytes_mut(disk)[..bytes].to_vec()
        })
        .collect()
}

/// Total reads and writes of the next `rebuild_step(1)` — one stripe —
/// and the most reads any one disk served.
fn counted_stripe(arr: &mut Counted) -> (u64, u64, u64) {
    arr.backend_mut().reset();
    arr.rebuild_step(1).unwrap();
    let counts = arr.backend_mut().counts();
    (
        counts.reads.iter().sum(),
        counts.writes.iter().sum(),
        counts.reads.iter().copied().max().unwrap(),
    )
}

fn assert_healthy_and_identical(arr: &mut Counted, before: &[Vec<u8>], what: &str) {
    assert!(arr.rebuild_progress().is_empty(), "{what}");
    assert!(arr.failed_slots().is_empty(), "{what}");
    assert!(
        arr.slot_states().iter().all(|&s| s == SlotState::Healthy),
        "{what}"
    );
    assert!(media(arr) == before, "{what}: rebuilt medium differs");
    let scrub = arr.scrub_pass().unwrap();
    assert_eq!(scrub.parity_checked, arr.stripes() as u64, "{what}");
    assert_eq!(
        (
            scrub.parity_mismatches,
            scrub.checksum_catches,
            scrub.degraded_reads
        ),
        (0, 0, 0),
        "{what}"
    );
}

fn each_code(mut body: impl FnMut(&CodeLayout, bool, String)) {
    for p in [5, 7, 11] {
        for layout in all_codes(p) {
            for journaled in [false, true] {
                let what = format!("{} p={p} journaled={journaled}", layout.name());
                body(&layout, journaled, what);
            }
        }
    }
}

#[test]
fn single_slot_rebuild_is_byte_identical_and_reads_the_minimum() {
    const STRIPES: usize = 3;
    each_code(|layout, journaled, what| {
        let (disks, rows) = (layout.disks(), layout.rows() as u64);
        let mut arr = filled(layout, STRIPES, disks, journaled);
        let before = media(&mut arr);
        for slot in 0..disks {
            arr.fail_disk(slot).unwrap();
            for stripe in 0..STRIPES {
                assert_eq!(arr.rebuild_progress(), [(slot, stripe, STRIPES)], "{what}");
                let col = ROTATION.to_logical(stripe, slot, disks);
                let model = optimal_rebuild(layout, col).read_count() as u64;
                let (reads, writes, _) = counted_stripe(&mut arr);
                assert_eq!(reads, model, "{what} slot {slot} stripe {stripe}");
                assert_eq!(writes, rows, "{what} slot {slot} stripe {stripe}");
            }
            assert_healthy_and_identical(&mut arr, &before, &format!("{what} slot {slot}"));
        }
        let stats = arr.stats();
        assert_eq!(stats.rebuild_stripes, (disks * STRIPES) as u64, "{what}");
        assert_eq!(stats.joint_rebuild_stripes, 0, "{what}");
        assert_eq!(stats.rebuilt_blocks, stats.rebuild_stripes * rows, "{what}");
    });
}

#[test]
fn two_slots_rebuild_from_one_pass_over_the_survivors() {
    const STRIPES: usize = 2;
    let programs = ScheduleCache::new();
    each_code(|layout, journaled, what| {
        let (disks, rows) = (layout.disks(), layout.rows() as u64);
        let pairs = disks * (disks - 1) / 2;
        let mut arr = filled(layout, STRIPES, 2 * pairs, journaled);
        let before = media(&mut arr);
        for a in 0..disks {
            for b in a + 1..disks {
                arr.fail_disk(a).unwrap();
                arr.fail_disk(b).unwrap();
                for stripe in 0..STRIPES {
                    let progress = arr.rebuild_progress();
                    assert_eq!(progress, [(a, stripe, STRIPES), (b, stripe, STRIPES)]);
                    let mut cols = [a, b].map(|s| ROTATION.to_logical(stripe, s, disks));
                    cols.sort_unstable();
                    let model = programs.column_program(layout, &cols).unwrap().reads.len();
                    let (reads, writes, busiest) = counted_stripe(&mut arr);
                    assert_eq!(reads, model as u64, "{what} slots {a},{b}");
                    assert_eq!(writes, 2 * rows, "{what} slots {a},{b}");
                    // As many reads as distinct cells, and no disk asked
                    // for more than its stripe holds: nothing read twice.
                    assert!(busiest <= rows, "{what} slots {a},{b}");
                }
                assert_healthy_and_identical(&mut arr, &before, &format!("{what} {a},{b}"));
            }
        }
        let stats = arr.stats();
        assert_eq!(stats.joint_rebuild_stripes, (pairs * STRIPES) as u64);
        assert_eq!(stats.rebuild_stripes, stats.joint_rebuild_stripes);
        assert_eq!(stats.rebuilt_blocks, stats.rebuild_stripes * 2 * rows);
    });
}

/// At every stripe watermark of the rebuild(s) `fail` starts: the whole
/// array reads back the oracle, and a write spanning the watermark lands
/// on both sides of it.
fn io_is_correct_at_every_watermark(slots: &[usize]) {
    const STRIPES: usize = 4;
    each_code(|layout, journaled, what| {
        let mut arr = filled(layout, STRIPES, slots.len(), journaled);
        let mut oracle = payload(arr.capacity_bytes());
        let n = arr.capacity_elements();
        let d = layout.data_len();
        for &slot in slots {
            arr.fail_disk(slot).unwrap();
            assert_eq!(arr.slot_states()[slot], SlotState::Rebuilding, "{what}");
        }
        for watermark in 0..STRIPES {
            let expect: Vec<_> = slots.iter().map(|&s| (s, watermark, STRIPES)).collect();
            assert_eq!(arr.rebuild_progress(), expect, "{what}");
            assert_eq!(arr.read(0, n).unwrap(), oracle, "{what} at {watermark}");
            // From the middle of the last rebuilt stripe (or the first
            // stripe) to the middle of the first unrebuilt one.
            let start = watermark.saturating_sub(1) * d + d / 2;
            let len = (d + 1).min(n - start);
            let patch = vec![0xC0 + watermark as u8; len * BLOCK];
            arr.write(start, &patch).unwrap();
            oracle[start * BLOCK..][..patch.len()].copy_from_slice(&patch);
            assert_eq!(arr.read(0, n).unwrap(), oracle, "{what} after write");
            arr.rebuild_step(1).unwrap();
        }
        assert!(arr.rebuild_progress().is_empty(), "{what}");
        assert_eq!(arr.stats().rebuilds_completed, slots.len() as u64, "{what}");
        assert_eq!(arr.read(0, n).unwrap(), oracle, "{what} after rebuild");
        let scrub = arr.scrub_pass().unwrap();
        assert_eq!(scrub.parity_checked, STRIPES as u64, "{what}");
        assert_eq!((scrub.parity_mismatches, scrub.checksum_catches), (0, 0));
    });
}

#[test]
fn reads_and_writes_are_correct_at_every_watermark_of_one_rebuild() {
    io_is_correct_at_every_watermark(&[2]);
}

#[test]
fn reads_and_writes_are_correct_at_every_watermark_of_a_joint_rebuild() {
    io_is_correct_at_every_watermark(&[0, 3]);
}

#[test]
fn a_slot_failing_mid_rebuild_catches_up_and_is_joined() {
    const STRIPES: usize = 6;
    const LEAD: usize = 3;
    for layout in all_codes(7) {
        let what = layout.name().to_string();
        let mut arr = filled(&layout, STRIPES, 2, false);
        let before = media(&mut arr);
        arr.fail_disk(1).unwrap();
        for _ in 0..LEAD {
            arr.rebuild_step(1).unwrap();
        }
        arr.fail_disk(4).unwrap();
        assert_eq!(
            arr.rebuild_progress(),
            [(1, LEAD, STRIPES), (4, 0, STRIPES)],
            "{what}"
        );
        // The late slot runs alone, lowest watermark first, to the
        // leader's stripe …
        for done in 1..=LEAD {
            arr.rebuild_step(1).unwrap();
            assert_eq!(
                arr.rebuild_progress(),
                [(1, LEAD, STRIPES), (4, done, STRIPES)]
            );
        }
        assert_eq!(arr.stats().joint_rebuild_stripes, 0, "{what}");
        // … and from there each pass serves both.
        arr.backend_mut().reset();
        while !arr.rebuild_step(1).unwrap() {}
        assert_eq!(
            arr.stats().joint_rebuild_stripes,
            (STRIPES - LEAD) as u64,
            "{what}"
        );
        assert_eq!(
            arr.stats().rebuild_stripes,
            (LEAD + STRIPES) as u64,
            "{what}"
        );
        assert_healthy_and_identical(&mut arr, &before, &what);

        // One after the other, the same two rebuilds read at least as much.
        let mut chained = filled(&layout, STRIPES, 1, false);
        chained.fail_disk(1).unwrap();
        for _ in 0..LEAD {
            chained.rebuild_step(1).unwrap();
        }
        chained.fail_disk(4).unwrap();
        while !chained.rebuild_step(1).unwrap() {}
        assert!(chained.failed_slots() == [4], "{what}: no spare for slot 4");
        let sequential = chained.stats().rebuild_read_blocks
            + (0..STRIPES)
                .map(|t| {
                    let col = ROTATION.to_logical(t, 4, layout.disks());
                    optimal_rebuild(&layout, col).read_count() as u64
                })
                .sum::<u64>();
        assert!(
            arr.stats().rebuild_read_blocks <= sequential,
            "{what}: joined {} > sequential {sequential}",
            arr.stats().rebuild_read_blocks
        );
    }
}

#[test]
fn one_spare_for_two_failures_rebuilds_the_first_and_leaves_the_second_failed() {
    const STRIPES: usize = 3;
    for layout in all_codes(5) {
        let what = layout.name().to_string();
        let mut arr = filled(&layout, STRIPES, 1, true);
        let before = media(&mut arr);
        arr.fail_disk(0).unwrap();
        arr.fail_disk(2).unwrap();
        assert_eq!(arr.rebuild_progress(), [(0, 0, STRIPES)], "{what}");
        assert_eq!(arr.failed_slots(), [2], "{what}");
        while !arr.rebuild_step(1).unwrap() {}
        // Rebuilt through a double erasure; slot 2 still has no disk.
        assert_eq!(arr.slot_states()[0], SlotState::Healthy, "{what}");
        assert_eq!(arr.failed_slots(), [2], "{what}");
        assert_eq!(arr.stats().joint_rebuild_stripes, 0, "{what}");
        let n = arr.capacity_elements();
        assert_eq!(arr.read(0, n).unwrap(), payload(n * BLOCK), "{what}");
        assert!(media(&mut arr)[0] == before[0], "{what}");
    }
}

#[test]
fn a_third_failure_during_a_joint_rebuild_is_a_typed_error() {
    const STRIPES: usize = 4;
    for layout in all_codes(7) {
        let what = layout.name().to_string();
        let d = layout.data_len();
        let mut arr = filled(&layout, STRIPES, 2, true);
        let oracle = payload(arr.capacity_bytes());
        arr.fail_disk(0).unwrap();
        arr.fail_disk(1).unwrap();
        arr.rebuild_step(1).unwrap();
        arr.rebuild_step(1).unwrap();
        assert_eq!(
            arr.rebuild_progress(),
            [(0, 2, STRIPES), (1, 2, STRIPES)],
            "{what}"
        );
        arr.fail_disk(5).unwrap();
        for _ in 0..3 {
            let step = arr.rebuild_step(1);
            assert!(
                matches!(step, Err(ArrayError::TooManyFailures { .. })),
                "{what}: {step:?}"
            );
            // Nothing moved, and the two rebuilt stripes — one erasure
            // each now — still read back what was written.
            assert_eq!(arr.rebuild_progress(), [(0, 2, STRIPES), (1, 2, STRIPES)]);
            assert_eq!(
                arr.read(0, 2 * d).unwrap(),
                oracle[..2 * d * BLOCK],
                "{what}"
            );
        }
        // A stripe above the watermark has lost three columns.
        assert!(matches!(
            arr.read(2 * d, d),
            Err(ArrayError::TooManyFailures { .. })
        ));
    }
}
