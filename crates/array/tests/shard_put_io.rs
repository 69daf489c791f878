//! The block I/O of one put or overwrite at the server's shard geometry
//! (D-Code p = 7, 4 KiB blocks, 64 stripes, eight index elements,
//! journaled), counted per disk by a `CountingBackend` under the array.
//!
//! The store places every value first-fit and writes it with
//! `ElementIo::write_unshared`. A value that covers no stripe whole — the
//! 1 KiB values of `kv_small_mixed` and the 64 KiB objects of
//! `array_degraded_rebuild` — is journaled stripe by stripe exactly as by
//! `write_elements`: the per-disk counts below are those of that path. A
//! stripe a value covers whole goes under one header-only resync record
//! instead of an intent record holding its 14 parities: 14 block writes
//! fewer, and nothing else changes. A same-length overwrite of a value of
//! one element is one `write_elements` where the value already is, and
//! no index page.

use dcode_array::device::{ArrayError, ElementIo};
use dcode_array::journal::journal_blocks_per_disk;
use dcode_array::objstore::ObjectStore;
use dcode_array::resilient::{ResilientArray, RetryPolicy};
use dcode_array::rotation::RotationScheme;
use dcode_core::dcode::dcode;
use dcode_faults::{CountingBackend, IoCounts, MemBackend};

type Array = ResilientArray<CountingBackend<MemBackend>>;

fn array() -> Array {
    let layout = dcode(7).unwrap();
    let blocks = 64 * layout.rows() + journal_blocks_per_disk(&layout, 4096);
    let backend = CountingBackend::new(MemBackend::new(layout.disks(), blocks, 4096));
    ResilientArray::format_journaled(
        layout,
        4096,
        64,
        RotationScheme::PerStripe,
        backend,
        RetryPolicy::default(),
        8,
    )
}

/// The array behind `ElementIo`'s default `write_unshared`: every value
/// written with `write_elements`.
struct Journaled(Array);

impl ElementIo for Journaled {
    fn capacity_elements(&self) -> usize {
        self.0.capacity_elements()
    }
    fn element_size(&self) -> usize {
        self.0.element_size()
    }
    fn read_elements(&mut self, start: usize, count: usize) -> Result<Vec<u8>, ArrayError> {
        self.0.read_elements(start, count)
    }
    fn write_elements(&mut self, start: usize, bytes: &[u8]) -> Result<(), ArrayError> {
        self.0.write_elements(start, bytes)
    }
}

/// What one store mutation did below the array: per-disk block I/O, and
/// the array's count of blocks its writes fetched and hashed.
struct Io {
    counts: IoCounts,
    fetched: u64,
    hashed: u64,
    unshared_stripes: u64,
}

/// Run `op` on a fresh store over `array(store)`, counting only what
/// `op` does after `setup`.
fn measure<D: ElementIo>(
    io: D,
    array: fn(&mut ObjectStore<D>) -> &mut Array,
    setup: impl FnOnce(&mut ObjectStore<D>),
    op: impl FnOnce(&mut ObjectStore<D>),
) -> Io {
    let mut s = ObjectStore::format(io, 8).unwrap();
    setup(&mut s);
    array(&mut s).backend_mut().reset();
    let before = array(&mut s).stats().clone();
    op(&mut s);
    let a = array(&mut s);
    let stats = a.stats().clone();
    Io {
        counts: a.backend_mut().counts().clone(),
        fetched: stats.write_fetch_blocks - before.write_fetch_blocks,
        hashed: stats.hashed_blocks - before.hashed_blocks,
        unshared_stripes: stats.unshared_stripes - before.unshared_stripes,
    }
}

/// Put a `len`-byte value under "key", then overwrite it with `newer`
/// bytes: the overwrite's I/O.
fn overwrite_to(len: usize, newer: usize) -> Io {
    let io = measure(
        array(),
        ObjectStore::array_mut,
        |s| s.put("key", &vec![1; len]).unwrap(),
        |s| s.upsert("key", &vec![2; newer]).unwrap(),
    );
    assert_eq!(io.unshared_stripes, 0);
    io
}

/// A same-length overwrite of a `len`-byte value.
fn overwrite(len: usize) -> Io {
    overwrite_to(len, len)
}

fn total(per_disk: &[u64]) -> u64 {
    per_disk.iter().sum()
}

#[test]
fn a_1_kib_overwrite_issues_the_journaled_io() {
    // Same length, one element: the value is written where it is and the
    // index record does not change, so no page is written. One delta
    // write: the cell and its two parities fetched and hashed with the new
    // cell, the cell and two parities written, a record of two parity
    // payload blocks, its header and its tombstone.
    let io = overwrite(1024);
    let counts = io.counts;
    assert_eq!((total(&counts.writes), total(&counts.flushes)), (7, 5));
    assert_eq!(counts.reads, [0, 1, 0, 1, 0, 0, 1]);
    assert_eq!(counts.writes, [0, 1, 0, 5, 0, 0, 1]);
    assert_eq!(counts.flushes, [0, 1, 0, 3, 0, 0, 1]);
    assert_eq!((io.fetched, io.hashed), (3, 4));
}

#[test]
fn a_1_kib_overwrite_that_changes_length_issues_two_journaled_writes() {
    // Copy-on-write: value and page, one delta write each (3 fetched, 7
    // written, 5 flushes).
    let io = overwrite_to(1024, 1000);
    let counts = io.counts;
    assert_eq!((total(&counts.writes), total(&counts.flushes)), (14, 10));
    assert_eq!(counts.reads, [1, 1, 2, 1, 0, 1, 0]);
    assert_eq!(counts.writes, [1, 1, 2, 5, 4, 1, 0]);
    assert_eq!(counts.flushes, [1, 1, 2, 3, 2, 1, 0]);
    assert_eq!((io.fetched, io.hashed), (6, 8));
}

#[test]
fn a_64_kib_overwrite_issues_the_journaled_io() {
    let counts = overwrite(64 * 1024).counts;
    assert_eq!(counts.reads, [5, 3, 6, 5, 6, 6, 4]);
    assert_eq!(counts.writes, [5, 3, 6, 17, 14, 10, 4]);
    assert_eq!(counts.flushes, [3, 2, 3, 4, 4, 5, 2]);
}

#[test]
fn a_256_kib_put_writes_the_stripe_it_covers_under_a_resync_record() {
    // First-fit from element 8: the back of stripe 0, stripe 1 whole
    // (elements 35..70), the front of stripe 2.
    let value = vec![3; 256 * 1024];
    let unshared = measure(
        array(),
        ObjectStore::array_mut,
        |_| {},
        |s| {
            s.put("key", &value).unwrap();
        },
    );
    let journaled = measure(
        Journaled(array()),
        |s| &mut s.array_mut().0,
        |_| {},
        |s| {
            s.put("key", &value).unwrap();
        },
    );
    assert_eq!(
        (unshared.unshared_stripes, journaled.unshared_stripes),
        (1, 0)
    );
    // Stripe 1's intent record carried its 14 parities by value; the
    // resync record carries none. Its header and tombstone, its flushes,
    // and every read, fetch and hash are the same.
    let (u, j) = (&unshared.counts, &journaled.counts);
    assert_eq!(total(&j.writes) - total(&u.writes), 14);
    assert_eq!(
        (u.reads.clone(), u.flushes.clone()),
        (j.reads.clone(), j.flushes.clone())
    );
    assert_eq!(
        (unshared.fetched, unshared.hashed),
        (journaled.fetched, journaled.hashed)
    );
    // 64 data and 30 parity blocks (14 + 14 + 2: the two front cells of
    // stripe 2 share two parities), the edge records' headers, 16 parity
    // payload blocks and tombstones, the resync header and tombstone,
    // and the index page's 7.
    assert_eq!(total(&u.writes), 64 + 30 + (2 + 16 + 2) + 2 + 7);
    assert_eq!(total(&u.flushes), 30);
}
