//! An overwrite through `ObjectStore`, crashed before every backend write
//! and remounted, from the public API alone: the scratch probe that
//! convicted the delete-then-put `upsert` (at 36 of its 57 crash points
//! a key whose value had been acknowledged answered `NotFound`), kept as
//! a test, and the one case that is still open kept beside it.
//!
//! The crash sweep (`dcode crash-sim`, `crashsim::CrashOp::StoreUpsert`)
//! enumerates the same thing for six code/prime pairs with an index that
//! fits one block. Here the geometry is the probe's — D-Code p = 5,
//! 64-byte blocks, four index elements — and the number of keys decides
//! whether the index text stays inside one block or spans three.

use dcode_array::{ObjectStore, ResilientArray, RetryPolicy, RotationScheme, StoreError};
use dcode_core::dcode::dcode;
use dcode_faults::{
    catch_crash, silence_crash_panics, FaultInjector, FaultPlan, MemBackend, SharedInjector,
};

const BLOCK: usize = 64;
const STRIPES: usize = 3;
const META: usize = 4;

type Medium = SharedInjector<MemBackend>;
type Store = ObjectStore<ResilientArray<Medium>>;

fn medium(volatile_cache: bool) -> Medium {
    let layout = dcode(5).unwrap();
    let blocks = STRIPES * layout.rows() + dcode_array::journal_blocks_per_disk(&layout, BLOCK);
    let plan = FaultPlan {
        volatile_cache,
        ..FaultPlan::quiet(23)
    };
    SharedInjector::new(FaultInjector::new(
        MemBackend::new(layout.disks(), blocks, BLOCK),
        plan,
    ))
}

fn value_of(key: usize, version: usize) -> Vec<u8> {
    vec![(key * 16 + version + 1) as u8; BLOCK]
}

/// A store of `keys` one-element objects `key00…`, every put acknowledged.
fn seeded(handle: &Medium, keys: usize) -> Store {
    let array = ResilientArray::format_journaled(
        dcode(5).unwrap(),
        BLOCK,
        STRIPES,
        RotationScheme::PerStripe,
        handle.clone(),
        RetryPolicy::default(),
        1_000_000,
    );
    let mut store = ObjectStore::format(array, META).unwrap();
    for key in 0..keys {
        store
            .put(&format!("key{key:02}"), &value_of(key, 0))
            .unwrap();
    }
    store
}

fn remount(handle: &Medium) -> Result<Store, String> {
    let array = ResilientArray::attach_journaled(
        dcode(5).unwrap(),
        BLOCK,
        STRIPES,
        RotationScheme::PerStripe,
        handle.clone(),
        RetryPolicy::default(),
        1_000_000,
    )
    .map_err(|e| format!("attach: {e}"))?;
    ObjectStore::open(array, META).map_err(|e| e.to_string())
}

/// Overwrite `key02` of a `keys`-object store with a longer value — its
/// new extent lands past the last object, at a start one digit wider when
/// there are six or more — crashing before each backend write in turn.
/// Returns the number of crash points and what went wrong at which.
fn overwrite_crashed_everywhere(keys: usize, volatile_cache: bool) -> (u64, Vec<String>) {
    silence_crash_panics();
    let victim = "key02";
    let newer = vec![0xEE; BLOCK + 6];
    let writes = {
        let handle = medium(volatile_cache);
        let mut store = seeded(&handle, keys);
        let before = handle.lock().writes_done();
        store.upsert(victim, &newer).unwrap();
        let total = handle.lock().writes_done();
        total - before
    };
    let mut wrong = Vec::new();
    for n in 0..writes {
        let handle = medium(volatile_cache);
        let mut store = seeded(&handle, keys);
        handle.lock().arm_crash(n);
        let crashed = catch_crash(|| store.upsert(victim, &newer));
        assert!(crashed.is_none(), "armed crash {n} must fire");
        handle.lock().power_cycle();
        let mut store = match remount(&handle) {
            Ok(store) => store,
            Err(e) => {
                wrong.push(format!("write {n}: does not open: {e}"));
                continue;
            }
        };
        for key in 0..keys {
            let name = format!("key{key:02}");
            let acked = value_of(key, 0);
            match store.get(&name) {
                Ok(bytes) if bytes == acked => {}
                Ok(bytes) if name == victim && bytes == newer => {}
                Ok(_) => wrong.push(format!("write {n}: '{name}' reads other bytes")),
                Err(StoreError::NotFound(_)) => {
                    wrong.push(format!("write {n}: acknowledged '{name}' is NotFound"));
                }
                Err(e) => wrong.push(format!("write {n}: get '{name}': {e}")),
            }
        }
        let scrub = store.array_mut().scrub_pass().unwrap();
        if scrub.parity_mismatches > 0 {
            wrong.push(format!(
                "write {n}: {} parity mismatches",
                scrub.parity_mismatches
            ));
        }
    }
    (writes, wrong)
}

#[test]
fn an_overwrite_crashed_at_any_write_keeps_an_acknowledged_value() {
    // Four keys: the index text is 44 bytes, inside its first block.
    // Delete-then-put took 57 writes here and lost the key at 36 of them;
    // copy-on-write takes 36 and loses it at none.
    for volatile_cache in [true, false] {
        let (writes, wrong) = overwrite_crashed_everywhere(4, volatile_cache);
        assert!(
            wrong.is_empty(),
            "volatile_cache={volatile_cache}, {writes} crash points: {wrong:#?}"
        );
    }
}

#[test]
#[ignore = "ROADMAP item 1: block-aligned index records"]
fn an_index_spanning_blocks_does_not_tear() {
    // Thirteen keys: 143 bytes of index text over three 64-byte blocks.
    // `key02,6,64` becomes `key02,17,70`, so every later line shifts by a
    // byte and all three blocks change. A healthy stripe's intent record
    // carries parity, not data: replaying it after a crash among the
    // three data-cell stores leaves each block old *or* new, and a
    // write-through medium keeps whichever landed. At 2 of the 36 crash
    // points the mix still parses and passes every check `open` makes:
    // once a later key's line names its neighbour's extent (`key05` reads
    // another object's bytes), once a line is swallowed (`key11`,
    // acknowledged, is `NotFound`). Delete-then-put, which rewrote the
    // index twice, was wrong at 38 of 57 (2 of them unopenable: a name
    // listed twice, overlapping extents). One block per mutation — the
    // fixed-size record of ROADMAP item 1 — cannot tear this way.
    let (writes, wrong) = overwrite_crashed_everywhere(13, false);
    assert!(wrong.is_empty(), "{writes} crash points: {wrong:#?}");
}
