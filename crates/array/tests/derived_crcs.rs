//! A write hashes only its new data cells; every parity CRC it stores is
//! what the encode program yields when replayed over CRCs already known
//! (`XorProgram::run_crcs`). A rebuild or read-repair hashes only the
//! survivors it reads; every block it reconstructs gets the CRC the
//! recovery program yields when replayed over theirs. This holds both against
//! the medium for every registry code at p ∈ {5, 7}, journaled, in every
//! state a write can meet: healthy, one failed slot, two failed slots,
//! and mid-rebuild — of one slot, of two slots rebuilt jointly, and of a
//! rebuild that a second failure and a dead spare chained onto the next
//! spare. Random sequences of one-cell, partial-stripe, full-stripe and
//! multi-stripe writes run in each, and after every write a dry-run
//! scrub must find no checksum catch and no parity mismatch — a wrong
//! derived CRC on a slot that serves the stripe is a catch there. The
//! failed-slot states are entered by a remount, so the failed slots'
//! table entries are placeholders that predate every write, as after a
//! real restart. When the rebuild completes, the same scrub must be clean
//! and every read equals a byte model; a rot case holds read-repaired
//! blocks the same way.
//!
//! In debug builds the array also asserts each derived CRC against a
//! hash of the stored bytes; these tests are what hold it in release.
//! The last test pins how many blocks the array hashes per overwrite and
//! per rebuilt stripe at the server's shard geometry.

use dcode_array::journal::journal_blocks_per_disk;
use dcode_array::objstore::ObjectStore;
use dcode_array::resilient::{AttachTopology, ResilientArray, RetryPolicy};
use dcode_array::rotation::RotationScheme;
use dcode_baselines::registry::all_codes;
use dcode_core::dcode::dcode;
use dcode_core::layout::CodeLayout;
use dcode_faults::{DiskBackend, MemBackend};

const BS: usize = 32;
const STRIPES: usize = 4;
const WRITES: usize = 24;

#[derive(Copy, Clone, Debug)]
enum State {
    Healthy,
    OneFailed,
    TwoFailed,
    MidRebuild,
    /// Two slots failed by hand, rebuilt jointly.
    MidJointRebuild,
    /// One slot failed; one stripe in, a second slot fails, then the
    /// first slot's spare dies and its rebuild chains onto a third.
    MidChainedRebuild,
}

impl State {
    fn mid_rebuild(self) -> bool {
        matches!(
            self,
            State::MidRebuild | State::MidJointRebuild | State::MidChainedRebuild
        )
    }
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

/// Remount `medium` with `failed` slots down and `spares` free, at the
/// block size and stripe count the medium was formatted with.
fn remount(
    layout: &CodeLayout,
    medium: MemBackend,
    failed: &[usize],
    spares: Vec<usize>,
) -> ResilientArray<MemBackend> {
    let bs = medium.block_size();
    let stripes = (medium.blocks() - journal_blocks_per_disk(layout, bs)) / layout.rows();
    ResilientArray::attach_journaled_as(
        layout.clone(),
        bs,
        stripes,
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
    let (n, d, rows) = (layout.disks(), layout.data_len(), layout.rows());
    let name = format!("{} p = {} {state:?}", layout.name(), layout.prime());
    let spare_disks = match state {
        State::Healthy => 0,
        State::OneFailed | State::MidRebuild => 1,
        State::TwoFailed | State::MidJointRebuild => 2,
        State::MidChainedRebuild => 3,
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
    let second = (first + 1 + below(seed, n - 1)) % n;
    let failed: Vec<usize> = match state {
        State::Healthy => vec![],
        State::OneFailed | State::MidRebuild => vec![first],
        _ => vec![first, second],
    };
    match state {
        State::Healthy => {}
        State::OneFailed | State::TwoFailed => {
            array = remount(layout, array.into_backend(), &failed, vec![]);
        }
        State::MidRebuild | State::MidJointRebuild => {
            for &slot in &failed {
                array.fail_disk(slot).unwrap();
            }
            array.rebuild_step(rows).unwrap();
        }
        State::MidChainedRebuild => {
            array.fail_disk(first).unwrap();
            array.rebuild_step(rows).unwrap();
            array.fail_disk(second).unwrap();
            array.rebuild_step(rows).unwrap();
            array.fail_disk(first).unwrap();
            assert_eq!(array.stats().spares_attached, 3, "{name}");
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
        if state.mid_rebuild() && array.rebuild_progress()[0].1 < STRIPES - 1 {
            array.rebuild_step(rows).unwrap();
        }
    }
    if !failed.is_empty() {
        if !state.mid_rebuild() {
            array = remount(
                layout,
                array.into_backend(),
                &failed,
                (n..n + spare_disks).collect(),
            );
            array.try_attach_spare();
        }
        while !array.rebuild_step(rows).unwrap() {}
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
                State::MidJointRebuild,
                State::MidChainedRebuild,
            ] {
                run(&layout, state, &mut seed);
            }
            read_repair(&layout, &mut seed);
        }
    }
}

/// Rot one block of every stripe on the medium, each on its own disk so
/// that no disk reaches the failure threshold, then read everything
/// (read-repair of data) and scrub (read-repair of parity).
fn read_repair(layout: &CodeLayout, seed: &mut u64) {
    let (n, rows) = (layout.disks(), layout.rows());
    let name = format!("{} p = {} rot", layout.name(), layout.prime());
    let mut array = ResilientArray::format_journaled(
        layout.clone(),
        BS,
        STRIPES,
        RotationScheme::PerStripe,
        MemBackend::new(n, geometry(layout), BS),
        RetryPolicy::default(),
        4,
    );
    let model = bytes(seed, array.capacity_bytes());
    array.write(0, &model).unwrap();
    let first = below(seed, n);
    for stripe in 0..STRIPES {
        let disk = (first + stripe) % n;
        let at = (stripe * rows + below(seed, rows)) * BS + below(seed, BS);
        array.backend_mut().disk_bytes_mut(disk)[at] ^= 0x5A;
    }
    let read = array.read(0, array.capacity_elements()).unwrap();
    assert!(read == model, "{name}: a read through the rot differs");
    array.scrub_pass().unwrap();
    let stats = array.stats();
    assert_eq!(stats.checksum_catches, STRIPES as u64, "{name}: {stats:?}");
    assert_eq!(stats.read_repairs, STRIPES as u64, "{name}: {stats:?}");
    assert_clean(&mut array, &model, &format!("{name}, repaired"));
}

/// At the server's shard geometry (D-Code p = 7, 4 KiB blocks, eight
/// index elements): a 1 KiB overwrite hashes the blocks it fetches and
/// its two new data cells, eight in all; a 256 KiB put hashes its new
/// data cells and what it fetches, and no parity, the stripe it covers
/// whole included; a rebuild hashes one block per
/// survivor it reads — 26 a stripe for one slot, 35 for two rebuilt
/// jointly — and none of the blocks it writes. A 1 KiB overwrite on an
/// array remounted with one slot failed hashes what it reads through the
/// failure and its new data, and derives every parity even where a
/// member sits on the failed slot.
#[test]
fn hashed_blocks_at_the_shard_geometry() {
    const BLOCK: usize = 4096;
    const SHARD_STRIPES: usize = 8;
    let layout = dcode(7).unwrap();
    let n = layout.disks();
    let blocks = SHARD_STRIPES * layout.rows() + journal_blocks_per_disk(&layout, BLOCK);
    let format = || {
        ResilientArray::format_journaled(
            layout.clone(),
            BLOCK,
            SHARD_STRIPES,
            RotationScheme::PerStripe,
            MemBackend::new(n + 3, blocks, BLOCK),
            RetryPolicy::default(),
            8,
        )
    };
    let mut store = ObjectStore::format(format(), 8).unwrap();
    store.put("key", &[1; 1024]).unwrap();
    let hashed =
        |store: &ObjectStore<ResilientArray<MemBackend>>| store.array().stats().hashed_blocks;

    // Copy-on-write to element 9: the value's cell and the page's, and the
    // three blocks each delta write fetches.
    let before = hashed(&store);
    store.upsert("key", &[2; 1000]).unwrap();
    assert_eq!(
        hashed(&store) - before,
        8,
        "a 1 KiB overwrite that changes length"
    );
    // In place at element 9, and no page: the cell and the three blocks
    // its delta write fetches.
    let before = hashed(&store);
    store.upsert("key", &[4; 1000]).unwrap();
    assert_eq!(hashed(&store) - before, 4, "a same-length 1 KiB overwrite");

    // First-fit at element 10: the back of stripe 0, stripe 1 whole
    // under a resync record, the front of stripe 2. The value's 64 cells,
    // the page's one and every block fetched are hashed; no parity is.
    let before = (hashed(&store), store.array().stats().write_fetch_blocks);
    store.put("large", &[3; 256 * 1024]).unwrap();
    let stats = store.array().stats();
    assert_eq!(stats.unshared_stripes, 1);
    let fetched = stats.write_fetch_blocks - before.1;
    assert_eq!(hashed(&store) - before.0, 64 + 1 + fetched, "a 256 KiB put");

    let before = hashed(&store);
    store.array_mut().fail_disk(2).unwrap();
    while !store.array_mut().rebuild_step(usize::MAX).unwrap() {}
    assert_eq!(
        hashed(&store) - before,
        26 * SHARD_STRIPES as u64,
        "a single-slot rebuild"
    );

    let before = hashed(&store);
    store.array_mut().fail_disk(3).unwrap();
    store.array_mut().fail_disk(5).unwrap();
    while !store.array_mut().rebuild_step(usize::MAX).unwrap() {}
    let stats = store.array().stats();
    assert_eq!(stats.joint_rebuild_stripes, SHARD_STRIPES as u64);
    assert_eq!(
        hashed(&store) - before,
        35 * SHARD_STRIPES as u64,
        "a joint two-slot rebuild"
    );
    assert_eq!(store.get("key").unwrap(), vec![4; 1000]);
    assert_eq!(store.get("large").unwrap(), vec![3; 256 * 1024]);

    // Blocks hashed by an overwrite of a 1 KiB value with `newer` bytes,
    // with each slot in turn failed before the remount.
    let degraded = |newer: usize| -> Vec<u64> {
        (0..n)
            .map(|slot| {
                let mut array = format();
                ObjectStore::format(&mut array, 8)
                    .unwrap()
                    .put("key", &[1; 1024])
                    .unwrap();
                let mut array = remount(&layout, array.into_backend(), &[slot], vec![]);
                let mut store = ObjectStore::open(&mut array, 8).unwrap();
                let before = store.array().stats().hashed_blocks;
                store.upsert("key", &vec![2; newer]).unwrap();
                let hashed = store.array().stats().hashed_blocks - before;
                assert_eq!(store.get("key").unwrap(), vec![2; newer]);
                hashed
            })
            .collect()
    };
    // The fetch reconstructs each lost cell through the equation that
    // reads fewest survivors beside what it already holds, whichever slot
    // failed (the peeling plan it replayed before read 71/72 on some).
    // Value and page each pay it; a same-length overwrite writes no page.
    assert_eq!(
        degraded(1000),
        [70; 7],
        "a 1 KiB overwrite that changes length, with slot 0, 1, … failed"
    );
    assert_eq!(
        degraded(1024),
        [35; 7],
        "a same-length 1 KiB overwrite with slot 0, 1, … failed"
    );
}
