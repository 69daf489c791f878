//! Property tests for the silent-corruption story across every code in
//! the registry: injected corruption must be *caught* (never returned as
//! good data) — by the per-block checksums of the resilient array, or
//! localized and repaired (or safely declared ambiguous) by the scrubber,
//! on a bare stripe and through the array's own scrub pass.

use dcode_array::resilient::{ResilientArray, RetryPolicy};
use dcode_array::rotation::RotationScheme;
use dcode_array::scrub::{scrub_stripe, ScrubReport};
use dcode_array::{journal_blocks_per_disk, ScrubSummary};
use dcode_baselines::registry::all_codes;
use dcode_codec::{encode, Stripe};
use dcode_core::dcode::dcode;
use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use dcode_faults::{CountingBackend, MemBackend};
use proptest::prelude::*;

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 51) as u8
        })
        .collect()
}

/// Backend block indices of `disk` that hold *data* cells (a bit flipped
/// in a parity block is only read — and caught — on a degraded path, so
/// the catch-on-read properties target data blocks).
fn data_blocks(
    layout: &CodeLayout,
    rotation: RotationScheme,
    stripes: usize,
    disk: usize,
) -> Vec<usize> {
    let rows = layout.rows();
    (0..stripes * rows)
        .filter(|&b| {
            let col = rotation.to_logical(b / rows, disk, layout.disks());
            layout.kind(Cell::new(b % rows, col)).is_data()
        })
        .collect()
}

/// First disk at or after `start` (cyclically) that holds any data block.
fn disk_with_data(
    layout: &CodeLayout,
    rotation: RotationScheme,
    stripes: usize,
    start: usize,
) -> (usize, Vec<usize>) {
    let disks = layout.disks();
    for off in 0..disks {
        let d = (start + off) % disks;
        let blocks = data_blocks(layout, rotation, stripes, d);
        if !blocks.is_empty() {
            return (d, blocks);
        }
    }
    unreachable!("some disk must hold data");
}

/// Block size of the journaled arrays below (the journal's minimum).
const JBLOCK: usize = 32;

/// A journaled, unrotated array written end to end, taken down, rotted —
/// one byte changed in each `(stripe, cell)` of `rot` — and mounted again
/// over a counting backend with its counters at zero. The attach reseeds
/// the CRCs from the rotten medium, so the rot is invisible to them: only
/// the scrub's syndrome check can see it. Returns the array and what was
/// written.
fn remount_rotted(
    layout: &CodeLayout,
    stripes: usize,
    seed: u64,
    rot: &[(usize, Cell)],
) -> (ResilientArray<CountingBackend<MemBackend>>, Vec<u8>) {
    let rows = layout.rows();
    let blocks = stripes * rows + journal_blocks_per_disk(layout, JBLOCK);
    let mut arr = ResilientArray::format_journaled(
        layout.clone(),
        JBLOCK,
        stripes,
        RotationScheme::None,
        MemBackend::new(layout.disks(), blocks, JBLOCK),
        RetryPolicy::default(),
        4,
    );
    let data = payload(arr.capacity_bytes(), seed);
    arr.write(0, &data).unwrap();
    let mut medium = arr.into_backend();
    // A different byte and mask per cell: equal errors in two cells of
    // one equation would cancel there and forge another syndrome.
    for (i, &(stripe, cell)) in rot.iter().enumerate() {
        let offset = (stripe * rows + cell.row) * JBLOCK + 5 + i;
        medium.disk_bytes_mut(cell.col)[offset] ^= 0x5A >> i;
    }
    let mut arr = ResilientArray::attach_journaled(
        layout.clone(),
        JBLOCK,
        stripes,
        RotationScheme::None,
        CountingBackend::new(medium),
        RetryPolicy::default(),
        4,
    )
    .unwrap();
    arr.backend_mut().reset();
    (arr, data)
}

fn backend_writes(arr: &mut ResilientArray<CountingBackend<MemBackend>>) -> u64 {
    arr.backend_mut().counts().writes.iter().sum()
}

/// Rot that happened while the array was down used to be *laundered*: the
/// pass saw parity disagree with data and rewrote the parity, making the
/// wrong byte permanent. It must be located and put back instead — a data
/// cell, a parity cell, or a unique pair in two columns.
#[test]
fn scrub_pass_locates_and_repairs_rot_the_crcs_cannot_see() {
    let layout = dcode(7).unwrap();
    let parity = layout.parity_cells().next().unwrap();
    // (rot, parity blocks that disagree, of which rewritten)
    let cases = [
        (vec![(1, Cell::new(0, 0))], 2, 0),
        (vec![(2, parity)], 1, 1),
        (vec![(0, Cell::new(0, 0)), (0, Cell::new(3, 4))], 4, 0),
    ];
    for (rot, mismatches, parity_repairs) in cases {
        let (mut arr, data) = remount_rotted(&layout, 3, 11, &rot);
        let found = arr.scrub_pass().unwrap();
        let expect = ScrubSummary {
            stripes: 3,
            parity_checked: 3,
            parity_mismatches: mismatches,
            parity_repairs,
            located_cells: rot.len() as u64,
            ..ScrubSummary::default()
        };
        assert_eq!(found, expect, "{rot:?}");
        assert_eq!(backend_writes(&mut arr), rot.len() as u64, "{rot:?}");
        assert_eq!(arr.read(0, arr.capacity_elements()).unwrap(), data);
        let again = arr.scrub_pass().unwrap();
        assert_eq!((again.parity_mismatches, again.located_cells), (0, 0));
    }
}

/// Three rotten cells in three columns of one stripe pin nothing down:
/// the stripe is counted and the pass writes nothing at all.
#[test]
fn scrub_pass_counts_an_ambiguous_stripe_and_leaves_it_alone() {
    let layout = dcode(5).unwrap();
    let rot = [0, 2, 4].map(|col| (1, Cell::new(0, col)));
    let (mut arr, _) = remount_rotted(&layout, 2, 12, &rot);
    let found = arr.scrub_pass().unwrap();
    assert_eq!(found.ambiguous_stripes, 1, "{found:?}");
    assert!(found.parity_mismatches > 0, "{found:?}");
    assert_eq!((found.located_cells, found.parity_repairs), (0, 0));
    assert_eq!(
        backend_writes(&mut arr),
        0,
        "an ambiguous stripe was written"
    );
    assert_eq!(arr.scrub_pass().unwrap(), found, "nothing changed");
}

/// The non-repairing pass gives the repairing pass's diagnosis and issues
/// no backend write (nor flush).
#[test]
fn scrub_dry_run_diagnoses_and_writes_nothing() {
    let layout = dcode(7).unwrap();
    let (mut arr, data) = remount_rotted(&layout, 3, 13, &[(1, Cell::new(0, 0))]);
    let dry = arr.scrub_dry_run().unwrap();
    assert_eq!(
        (dry.located_cells, dry.parity_mismatches),
        (1, 2),
        "{dry:?}"
    );
    assert_eq!((dry.parity_repairs, dry.read_repairs), (0, 0), "{dry:?}");
    let counts = arr.backend_mut().counts().clone();
    assert_eq!(counts.writes.iter().sum::<u64>(), 0);
    assert_eq!(counts.flushes.iter().sum::<u64>(), 0);
    // The damage is still there for the repairing pass to fix.
    assert_eq!(arr.scrub_pass().unwrap().located_cells, 1);
    assert_eq!(arr.read(0, arr.capacity_elements()).unwrap(), data);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A single silent corruption of any data block on any disk's medium
    /// is caught by the block checksum and served (and repaired) through
    /// parity — the read returns the original bytes for every registry
    /// code.
    #[test]
    fn single_medium_corruption_is_caught_by_checksums(
            p in prop::sample::select(vec![5usize, 7, 11, 13]),
            seed in any::<u64>(),
            pick in any::<u64>()) {
        const BLOCK: usize = 16;
        const STRIPES: usize = 2;
        let rot = RotationScheme::PerStripe;
        for layout in all_codes(p) {
            let disks = layout.disks();
            let backend = MemBackend::new(disks, STRIPES * layout.rows(), BLOCK);
            let mut arr = ResilientArray::format(
                layout, BLOCK, STRIPES, rot,
                backend, RetryPolicy::default(), 1_000_000,
            );
            let data = payload(arr.capacity_bytes(), seed);
            arr.write(0, &data).unwrap();

            // Flip one bit inside a data block of some disk.
            let (disk, blocks) = disk_with_data(arr.layout(), rot, STRIPES, pick as usize % disks);
            let block = blocks[(pick >> 16) as usize % blocks.len()];
            let bit = block * BLOCK * 8 + (pick >> 32) as usize % (BLOCK * 8);
            arr.backend_mut().disk_bytes_mut(disk)[bit / 8] ^= 1 << (bit % 8);

            let n = arr.capacity_elements();
            let got = arr.read(0, n).unwrap();
            prop_assert_eq!(&got, &data, "{} p={}", arr.layout().name(), p);
            prop_assert_eq!(arr.stats().checksum_catches, 1,
                "{} p={}: corruption not caught", arr.layout().name(), p);
            prop_assert_eq!(arr.stats().read_repairs, 1,
                "{} p={}: corruption not repaired in place", arr.layout().name(), p);
            // Repaired: a second pass is checksum-clean.
            let got = arr.read(0, n).unwrap();
            prop_assert_eq!(&got, &data);
            prop_assert_eq!(arr.stats().checksum_catches, 1);
        }
    }

    /// A corrupted *pair* of cells (distinct columns) in one stripe is
    /// either exactly localized and repaired by the scrubber or declared
    /// ambiguous with the stripe untouched — never silently mis-repaired.
    #[test]
    fn pair_corruption_is_localized_or_safely_ambiguous(
            p in prop::sample::select(vec![5usize, 7, 11, 13]),
            seed in any::<u64>(),
            pick in any::<u64>()) {
        const BLOCK: usize = 8;
        for layout in all_codes(p) {
            let data = payload(layout.data_len() * BLOCK, seed);
            let mut golden = Stripe::from_data(&layout, BLOCK, &data);
            encode(&layout, &mut golden);

            let grid = layout.grid();
            let a = Cell::new(
                (pick as usize) % grid.rows,
                (pick >> 16) as usize % grid.cols,
            );
            let col_b = {
                let shift = 1 + (pick >> 32) as usize % (grid.cols - 1);
                (a.col + shift) % grid.cols
            };
            let b = Cell::new((pick >> 48) as usize % grid.rows, col_b);

            let mut s = golden.clone();
            s.block_mut(a)[0] ^= 0x3C;
            s.block_mut(b)[BLOCK - 1] ^= 0xA5;
            let corrupted = s.clone();

            let located = match scrub_stripe(&layout, &mut s) {
                ScrubReport::RepairedPair { cells } => {
                    let mut want = [a, b];
                    want.sort_unstable();
                    prop_assert_eq!(cells, want, "{} p={}", layout.name(), p);
                    prop_assert_eq!(&s, &golden, "{} p={}: bad repair", layout.name(), p);
                    true
                }
                ScrubReport::Ambiguous => {
                    prop_assert_eq!(&s, &corrupted,
                        "{} p={}: ambiguous scrub modified the stripe", layout.name(), p);
                    false
                }
                other => {
                    prop_assert!(false,
                        "{} p={}: pair ({a}, {b}) gave {other:?}", layout.name(), p);
                    unreachable!()
                }
            };

            // The same pair rotted on the medium of an unmounted array:
            // the array's pass reaches the same verdict, stores exactly
            // the two cells back or nothing, and never returns a byte
            // that was not written once it has repaired.
            let (mut arr, data) = remount_rotted(&layout, 1, seed, &[(0, a), (0, b)]);
            let found = arr.scrub_pass().unwrap();
            prop_assert!(found.parity_mismatches > 0, "{} p={}", layout.name(), p);
            if located {
                prop_assert_eq!((found.located_cells, found.ambiguous_stripes), (2, 0),
                    "{} p={}: {:?}", layout.name(), p, found);
                prop_assert_eq!(backend_writes(&mut arr), 2);
                let n = arr.capacity_elements();
                prop_assert_eq!(arr.read(0, n).unwrap(), data);
            } else {
                prop_assert_eq!((found.located_cells, found.ambiguous_stripes), (0, 1),
                    "{} p={}: {:?}", layout.name(), p, found);
                prop_assert_eq!(backend_writes(&mut arr), 0,
                    "{} p={}: ambiguous stripe written", layout.name(), p);
            }
        }
    }

    /// The same pair corruption applied to the *medium* under a resilient
    /// array is caught by checksums: both rotten blocks are detected and
    /// the read returns correct data for every registry code.
    #[test]
    fn pair_medium_corruption_is_caught_by_checksums(
            p in prop::sample::select(vec![5usize, 7, 11, 13]),
            seed in any::<u64>(),
            pick in any::<u64>()) {
        const BLOCK: usize = 16;
        let rot = RotationScheme::None;
        for layout in all_codes(p) {
            let disks = layout.disks();
            let rows = layout.rows();
            let backend = MemBackend::new(disks, rows, BLOCK);
            let mut arr = ResilientArray::format(
                layout, BLOCK, 1, rot,
                backend, RetryPolicy::default(), 1_000_000,
            );
            let data = payload(arr.capacity_bytes(), seed);
            arr.write(0, &data).unwrap();

            // Rot one data block on each of two distinct data-bearing
            // disks (pure-parity columns are only read on degraded paths,
            // so corruption there would not be touched by this read).
            let data_disks: Vec<usize> = (0..disks)
                .filter(|&d| !data_blocks(arr.layout(), rot, 1, d).is_empty())
                .collect();
            let d1 = data_disks[pick as usize % data_disks.len()];
            let others: Vec<usize> = data_disks.into_iter().filter(|&d| d != d1).collect();
            let d2 = others[(pick >> 8) as usize % others.len()];
            let blocks1 = data_blocks(arr.layout(), rot, 1, d1);
            let blocks2 = data_blocks(arr.layout(), rot, 1, d2);
            for (d, blocks, salt) in [(d1, blocks1, 0u64), (d2, blocks2, 17)] {
                let block = blocks[(pick >> 16).wrapping_add(salt) as usize % blocks.len()];
                let bit = block * BLOCK * 8
                    + ((pick >> 32).wrapping_add(salt * 97) as usize) % (BLOCK * 8);
                arr.backend_mut().disk_bytes_mut(d)[bit / 8] ^= 1 << (bit % 8);
            }

            let n = arr.capacity_elements();
            let got = arr.read(0, n).unwrap();
            prop_assert_eq!(&got, &data, "{} p={}", arr.layout().name(), p);
            prop_assert_eq!(arr.stats().checksum_catches, 2,
                "{} p={}: both corruptions must be caught", arr.layout().name(), p);
        }
    }
}
