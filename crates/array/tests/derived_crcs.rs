//! A write hashes only its new data cells; every parity CRC it stores is
//! derived from CRCs already known (`ResilientArray::derive_parity_crcs`).
//! This holds the derivation against the medium for every registry code
//! at p ∈ {5, 7}, journaled, in every state a write can meet: healthy,
//! one failed slot, two failed slots, and mid-rebuild. Random sequences
//! of one-cell, partial-stripe, full-stripe and multi-stripe writes run
//! in each, and after every write a dry-run scrub must find no checksum
//! catch and no parity mismatch — a wrong derived CRC on a slot that
//! serves the stripe is a catch there. The failed-slot states are
//! entered by a remount, so the failed slots' table entries predate
//! every write, as after a real restart. When the rebuild completes,
//! every read equals a byte model.
//!
//! In debug builds the array also asserts each derived CRC against a
//! hash of the stored bytes; this test is what holds it in release.

use dcode_array::journal::journal_blocks_per_disk;
use dcode_array::resilient::{AttachTopology, ResilientArray, RetryPolicy};
use dcode_array::rotation::RotationScheme;
use dcode_baselines::registry::all_codes;
use dcode_core::layout::CodeLayout;
use dcode_faults::MemBackend;

const BS: usize = 32;
const STRIPES: usize = 4;
const WRITES: usize = 24;

#[derive(Copy, Clone, Debug)]
enum State {
    Healthy,
    OneFailed,
    TwoFailed,
    MidRebuild,
}

/// splitmix64.
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn bytes(seed: &mut u64, n: usize) -> Vec<u8> {
    (0..n).map(|_| next(seed) as u8).collect()
}

fn below(seed: &mut u64, n: usize) -> usize {
    (next(seed) % n as u64) as usize
}

/// A random write `(start, elements)`: one cell, part of a stripe, a
/// whole stripe, or a run across stripes.
fn random_write(seed: &mut u64, d: usize) -> (usize, usize) {
    let capacity = STRIPES * d;
    match below(seed, 4) {
        0 => (below(seed, capacity), 1),
        1 => {
            let within = below(seed, d - 2);
            let count = 2 + below(seed, d - 2 - within);
            (below(seed, STRIPES) * d + within, count)
        }
        2 => (below(seed, STRIPES) * d, d),
        _ => {
            let start = below(seed, capacity - d - 1);
            let count = (d - start % d) + 1 + below(seed, capacity - start - (d - start % d));
            (start, count)
        }
    }
}

fn geometry(layout: &CodeLayout) -> usize {
    STRIPES * layout.rows() + journal_blocks_per_disk(layout, BS)
}

/// Remount `medium` with `failed` slots down and `spares` free.
fn remount(
    layout: &CodeLayout,
    medium: MemBackend,
    failed: &[usize],
    spares: Vec<usize>,
) -> ResilientArray<MemBackend> {
    ResilientArray::attach_journaled_as(
        layout.clone(),
        BS,
        STRIPES,
        RotationScheme::PerStripe,
        medium,
        RetryPolicy::default(),
        4,
        AttachTopology {
            slot_to_disk: (0..layout.disks()).collect(),
            failed_slots: failed.to_vec(),
            spares,
        },
    )
    .unwrap()
}

fn assert_clean(array: &mut ResilientArray<MemBackend>, model: &[u8], what: &str) {
    let scrub = array.scrub_dry_run().unwrap();
    assert_eq!(scrub.checksum_catches, 0, "{what}: {scrub:?}");
    assert_eq!(scrub.parity_mismatches, 0, "{what}: {scrub:?}");
    let read = array.read(0, array.capacity_elements()).unwrap();
    assert!(read == model, "{what}: a read differs from the model");
}

fn run(layout: &CodeLayout, state: State, seed: &mut u64) {
    let (n, d) = (layout.disks(), layout.data_len());
    let name = format!("{} p = {} {state:?}", layout.name(), layout.prime());
    let spare_disks = match state {
        State::Healthy => 0,
        State::OneFailed | State::MidRebuild => 1,
        State::TwoFailed => 2,
    };
    let mut array = ResilientArray::format_journaled(
        layout.clone(),
        BS,
        STRIPES,
        RotationScheme::PerStripe,
        MemBackend::new(n + spare_disks, geometry(layout), BS),
        RetryPolicy::default(),
        4,
    );
    let mut model = bytes(seed, array.capacity_bytes());
    array.write(0, &model).unwrap();
    let first = below(seed, n);
    let failed: Vec<usize> = match state {
        State::Healthy => vec![],
        State::OneFailed | State::MidRebuild => vec![first],
        State::TwoFailed => vec![first, (first + 1 + below(seed, n - 1)) % n],
    };
    match state {
        State::Healthy => {}
        State::OneFailed | State::TwoFailed => {
            array = remount(layout, array.into_backend(), &failed, vec![]);
        }
        State::MidRebuild => {
            array.fail_disk(first).unwrap();
            array.rebuild_step(layout.rows()).unwrap();
        }
    }
    for step in 0..WRITES {
        let (start, count) = random_write(seed, d);
        let new = bytes(seed, count * BS);
        array.write(start, &new).unwrap();
        model[start * BS..(start + count) * BS].copy_from_slice(&new);
        let what = format!("{name}, write {step} of {count} at {start}");
        assert_clean(&mut array, &model, &what);
        // Keep the watermark moving without letting the rebuild finish.
        if matches!(state, State::MidRebuild) && array.rebuild_progress()[0].1 < STRIPES - 1 {
            array.rebuild_step(layout.rows()).unwrap();
        }
    }
    if !failed.is_empty() {
        if !matches!(state, State::MidRebuild) {
            array = remount(
                layout,
                array.into_backend(),
                &failed,
                (n..n + spare_disks).collect(),
            );
            array.try_attach_spare();
        }
        while !array.rebuild_step(layout.rows()).unwrap() {}
        assert!(
            array.failed_slots().is_empty(),
            "{name}: rebuild left a slot down"
        );
    }
    assert_clean(&mut array, &model, &format!("{name}, rebuilt"));
}

#[test]
fn derived_parity_crcs_match_the_medium_for_every_code_and_state() {
    let mut seed = 2_027;
    for p in [5, 7] {
        for layout in all_codes(p) {
            for state in [
                State::Healthy,
                State::OneFailed,
                State::TwoFailed,
                State::MidRebuild,
            ] {
                run(&layout, state, &mut seed);
            }
        }
    }
}
