//! The write path stores only what the update equations require, and what
//! it stores is right.
//!
//! * **Differential**: after every write the medium — data *and* parity
//!   cells — equals a model stripe updated by `update::write_logical`
//!   (the independent delta-propagation oracle), and at the end equals a
//!   full re-encode of the logical content, which is what the old
//!   whole-stripe read-modify-write left behind.
//! * **I/O counts** through a [`CountingBackend`]: a one-element write
//!   reads and writes `1 + A` blocks, a full-stripe write reads nothing,
//!   and every delta-branch write touches each disk exactly as often as
//!   `iosim::write_accesses` says — the simulator validated against the
//!   real engine, as `update.rs`'s module doc promises.

use dcode_array::journal::journal_blocks_per_disk;
use dcode_array::resilient::{ResilientArray, RetryPolicy};
use dcode_array::rotation::RotationScheme;
use dcode_baselines::registry::all_codes;
use dcode_codec::update::affected_parities;
use dcode_codec::{encode, write_logical, Stripe};
use dcode_core::dcode::dcode;
use dcode_core::grid::Cell;
use dcode_core::layout::CodeLayout;
use dcode_faults::{CountingBackend, DiskBackend, MemBackend};
use dcode_iosim::write_accesses;

const STRIPES: usize = 3;

/// Deterministic bytes (splitmix64 stream).
fn prand(seed: &mut u64, n: usize) -> Vec<u8> {
    (0..n)
        .map(|_| {
            *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

fn new_array<B: DiskBackend>(
    layout: &CodeLayout,
    bs: usize,
    rotation: RotationScheme,
    journaled: bool,
    wrap: impl FnOnce(MemBackend) -> B,
) -> ResilientArray<B> {
    let journal = if journaled {
        journal_blocks_per_disk(layout, bs)
    } else {
        0
    };
    let backend = wrap(MemBackend::new(
        layout.disks(),
        STRIPES * layout.rows() + journal,
        bs,
    ));
    let format = if journaled {
        ResilientArray::format_journaled
    } else {
        ResilientArray::format
    };
    format(
        layout.clone(),
        bs,
        STRIPES,
        rotation,
        backend,
        RetryPolicy::default(),
        4,
    )
}

/// The block holding `cell` of stripe `t`, straight off the medium.
fn medium_block(
    array: &mut ResilientArray<MemBackend>,
    rotation: RotationScheme,
    t: usize,
    cell: Cell,
) -> Vec<u8> {
    let (bs, rows, disks) = (
        array.block_size(),
        array.layout().rows(),
        array.layout().disks(),
    );
    let disk = array.slot_disk(rotation.to_physical(t, cell.col, disks));
    let off = (t * rows + cell.row) * bs;
    array.backend_mut().disk_bytes_mut(disk)[off..off + bs].to_vec()
}

fn assert_stripe_on_medium(
    array: &mut ResilientArray<MemBackend>,
    rotation: RotationScheme,
    t: usize,
    model: &Stripe,
    what: &str,
) {
    let grid = array.layout().grid();
    for row in 0..grid.rows {
        for col in 0..grid.cols {
            let cell = Cell::new(row, col);
            assert_eq!(
                medium_block(array, rotation, t, cell),
                model.block(cell),
                "{what}: stripe {t} cell ({row},{col})"
            );
        }
    }
}

/// Apply a logical write to the model, segment by segment.
fn model_write(layout: &CodeLayout, model: &mut [Stripe], start: usize, bytes: &[u8]) {
    let (d, bs) = (layout.data_len(), model[0].block_size());
    let mut offset = 0;
    while offset < bytes.len() / bs {
        let (t, within) = ((start + offset) / d, (start + offset) % d);
        let chunk = (d - within).min(bytes.len() / bs - offset);
        let new = &bytes[offset * bs..(offset + chunk) * bs];
        write_logical(layout, &mut model[t], within, new);
        offset += chunk;
    }
}

fn differential(layout: &CodeLayout, bs: usize, journaled: bool) {
    let what = format!(
        "{} p={} bs={bs} journaled={journaled}",
        layout.name(),
        layout.prime()
    );
    let rotation = RotationScheme::PerStripe;
    let mut array = new_array(layout, bs, rotation, journaled, |m| m);
    let d = layout.data_len();
    let mut seed = (d * bs) as u64;

    let initial = prand(&mut seed, array.capacity_bytes());
    array.write(0, &initial).unwrap();
    let mut model: Vec<Stripe> = initial
        .chunks(d * bs)
        .map(|data| {
            let mut s = Stripe::from_data(layout, bs, data);
            encode(layout, &mut s);
            s
        })
        .collect();

    // Every (within, chunk) of a stripe, spread over the stripes.
    for within in 0..d {
        for chunk in 1..=d - within {
            let t = (within + chunk) % STRIPES;
            let bytes = prand(&mut seed, chunk * bs);
            array.write(t * d + within, &bytes).unwrap();
            model_write(layout, &mut model, t * d + within, &bytes);
            let here = format!("{what} within={within} chunk={chunk}");
            assert_stripe_on_medium(&mut array, rotation, t, &model[t], &here);
        }
    }
    // Ranges crossing one stripe boundary, then two.
    for (start, count) in [
        (d - 1, 2),
        (d - 2, 5.min(d)),
        (2 * d - 1, d),
        (d - 1, d + 2),
        (1, 2 * d),
    ] {
        let bytes = prand(&mut seed, count * bs);
        array.write(start, &bytes).unwrap();
        model_write(layout, &mut model, start, &bytes);
        for (t, stripe) in model.iter().enumerate() {
            let here = format!("{what} start={start} count={count}");
            assert_stripe_on_medium(&mut array, rotation, t, stripe, &here);
        }
    }

    // Both branches served traffic (a P-Code p=5 stripe is too small for
    // any delta to pay), and the array agrees with a full re-encode of its
    // logical content, cell for cell.
    let delta_pays = (0..d).any(|e| 1 + affected_parities(layout, e, 1).len() < d - 1);
    assert_eq!(array.stats().delta_segments > 0, delta_pays, "{what}");
    assert!(array.stats().reconstruct_segments > 0, "{what}");
    let content: Vec<u8> = model.iter().flat_map(|s| s.data_bytes(layout)).collect();
    assert_eq!(
        array.read(0, array.capacity_elements()).unwrap(),
        content,
        "{what}"
    );
    for (t, data) in content.chunks(d * bs).enumerate() {
        let mut fresh = Stripe::from_data(layout, bs, data);
        encode(layout, &mut fresh);
        assert_stripe_on_medium(&mut array, rotation, t, &fresh, &what);
    }
    let scrub = array.scrub_pass().unwrap();
    assert_eq!(scrub.parity_checked, STRIPES as u64, "{what}");
    assert_eq!(scrub.parity_mismatches, 0, "{what}");
    assert_eq!(array.stats().checksum_catches, 0, "{what}");
}

#[test]
fn every_partial_write_matches_the_delta_oracle_and_a_full_reencode() {
    for p in [5, 7, 11] {
        for layout in all_codes(p) {
            differential(&layout, 5, false);
        }
    }
}

#[test]
fn every_journaled_partial_write_matches_them_too() {
    for p in [5, 7, 11] {
        for layout in all_codes(p) {
            differential(&layout, 33, true);
        }
    }
}

#[test]
fn stale_old_parity_is_caught_before_the_delta_is_folded_in() {
    let layout = dcode(7).unwrap();
    let (bs, rotation) = (16, RotationScheme::None);
    let mut array = new_array(&layout, bs, rotation, false, |m| m);
    let mut seed = 7;
    let mut content = prand(&mut seed, array.capacity_bytes());
    array.write(0, &content).unwrap();

    // Rot one byte of a parity the next write is about to fold into.
    let element = 10;
    let parity = affected_parities(&layout, element, 1)[0];
    let off = parity.row * bs;
    array.backend_mut().disk_bytes_mut(parity.col)[off + 3] ^= 0x20;

    let new = prand(&mut seed, bs);
    array.write(element, &new).unwrap();
    content[element * bs..(element + 1) * bs].copy_from_slice(&new);
    assert_eq!(array.stats().delta_segments, 1);
    assert_eq!(array.stats().checksum_catches, 1);
    assert_eq!(array.read(0, array.capacity_elements()).unwrap(), content);
    let scrub = array.scrub_pass().unwrap();
    assert_eq!((scrub.checksum_catches, scrub.parity_mismatches), (0, 0));
    assert_eq!(scrub.parity_checked, STRIPES as u64);
}

/// Reads and writes per disk of the array's next operation.
fn counted<R>(
    array: &mut ResilientArray<CountingBackend<MemBackend>>,
    op: impl FnOnce(&mut ResilientArray<CountingBackend<MemBackend>>) -> R,
) -> (Vec<u64>, Vec<u64>, u64) {
    array.backend_mut().reset();
    op(array);
    let counts = array.backend_mut().counts().clone();
    let flushes = counts.flushes.iter().sum();
    (counts.reads, counts.writes, flushes)
}

#[test]
fn issued_block_io_equals_the_update_equations() {
    for layout in all_codes(7) {
        let name = layout.name().to_string();
        let (bs, d) = (8, layout.data_len());
        // No rotation, no journal: disk = column, and every counted block
        // is a stripe block.
        let mut array = new_array(
            &layout,
            bs,
            RotationScheme::None,
            false,
            CountingBackend::new,
        );
        let mut seed = 1;

        // Full stripes re-encode from the new data alone.
        let fill = prand(&mut seed, array.capacity_bytes());
        let (reads, _, _) = counted(&mut array, |a| a.write(0, &fill).unwrap());
        assert_eq!(
            reads.iter().sum::<u64>(),
            0,
            "{name}: full-stripe write read"
        );

        // One element: itself and its update closure, read once and
        // written once.
        for element in 0..d {
            let a = affected_parities(&layout, element, 1).len() as u64;
            let new = prand(&mut seed, bs);
            let (reads, writes, _) = counted(&mut array, |arr| arr.write(element, &new).unwrap());
            assert_eq!(reads.iter().sum::<u64>(), 1 + a, "{name} element {element}");
            assert_eq!(
                writes.iter().sum::<u64>(),
                1 + a,
                "{name} element {element}"
            );
        }

        // Any delta-branch write: per-disk accesses are the simulator's.
        for within in 0..d {
            for chunk in 1..=d - within {
                let before = array.stats().delta_segments;
                let new = prand(&mut seed, chunk * bs);
                let (reads, writes, _) = counted(&mut array, |a| a.write(within, &new).unwrap());
                if array.stats().delta_segments == before {
                    continue;
                }
                let per_disk: Vec<u64> = reads.iter().zip(&writes).map(|(r, w)| r + w).collect();
                let model = write_accesses(&layout, within, chunk).per_disk;
                assert_eq!(per_disk, model, "{name} within={within} chunk={chunk}");
            }
        }
    }
}

#[test]
fn dcode_p7_journaled_put_shapes_cost_what_the_issue_says() {
    // The shard geometry: 4 KiB blocks, one header block per record.
    let layout = dcode(7).unwrap();
    let mut array = new_array(
        &layout,
        4096,
        RotationScheme::PerStripe,
        true,
        CountingBackend::new,
    );
    let total = |(r, w, f): (Vec<u64>, Vec<u64>, u64)| -> (u64, u64, u64) {
        (r.iter().sum(), w.iter().sum(), f)
    };
    let block = vec![0xA5u8; 4096];
    // A value: 1 data + 2 parity read; those 3, a 2-block payload, the
    // header and the tombstone written; commit, 3 disks, retire flushed.
    assert_eq!(
        total(counted(&mut array, |a| a.write(40, &block).unwrap())),
        (3, 7, 5)
    );
    // The index: 8 elements at element 0 change 8 parities.
    let index = block.repeat(8);
    assert_eq!(
        total(counted(&mut array, |a| a.write(0, &index).unwrap())),
        (16, 26, 9)
    );
    // A full stripe: nothing to read; 35 + 14 cells, 14 payload blocks.
    let stripe = block.repeat(35);
    assert_eq!(
        total(counted(&mut array, |a| a.write(35, &stripe).unwrap())),
        (0, 65, 9)
    );
}
