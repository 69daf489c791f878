//! An overwrite through `ObjectStore`, crashed before every backend write
//! and remounted, from the public API alone: the scratch probe that
//! convicted the delete-then-put `upsert` (at 36 of its 57 crash points
//! a key whose value had been acknowledged answered `NotFound`) and then
//! the whole-region text index (13 keys over three blocks tore into an
//! index that *parsed* at 2 of 36 points: one key read another object's
//! bytes, one acknowledged key was `NotFound`), kept as tests.
//!
//! The crash sweep (`dcode crash-sim`, `crashsim::CrashOp::StoreUpsert`)
//! enumerates the same thing for six code/prime pairs with one record a
//! page. Here the geometry is the probe's — D-Code p = 5, 64-byte blocks,
//! two `keyNN` records a page — and the number of keys decides whether
//! the index is two pages or all seven.

use dcode_array::{ObjectStore, ResilientArray, RetryPolicy, RotationScheme, StoreError};
use dcode_core::dcode::dcode;
use dcode_faults::{
    catch_crash, silence_crash_panics, FaultInjector, FaultPlan, MemBackend, SharedInjector,
};

const BLOCK: usize = 64;
const STRIPES: usize = 3;
/// Two 25-byte records fit a 64-byte page: seven pages hold 13 keys.
const META: usize = 7;

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

/// How many index pages hold at least one record, read from the medium.
fn pages_in_use(store: &mut Store) -> usize {
    let region = store.array_mut().read(0, META).unwrap();
    let counts = region.chunks(BLOCK).map(|page| &page[4..8]);
    counts.filter(|count| *count != [0; 4]).count()
}

/// Overwrite `key02` of a `keys`-object store with a longer value — its
/// new extent lands past the last object — crashing before each backend
/// write in turn. Returns the number of crash points, the index pages
/// the keys span and what went wrong at which point.
fn overwrite_crashed_everywhere(keys: usize, volatile_cache: bool) -> (u64, usize, Vec<String>) {
    silence_crash_panics();
    let victim = "key02";
    let newer = vec![0xEE; BLOCK + 6];
    let (writes, pages) = {
        let handle = medium(volatile_cache);
        let mut store = seeded(&handle, keys);
        let before = handle.lock().writes_done();
        store.upsert(victim, &newer).unwrap();
        let total = handle.lock().writes_done();
        (total - before, pages_in_use(&mut store))
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
    (writes, pages, wrong)
}

/// Backend writes of the overwrite: one journaled write of the value's
/// two elements, one of the victim's page — whatever the number of keys.
/// The whole-region text index took 36.
const OVERWRITE_WRITES: u64 = 25;

#[test]
fn an_overwrite_crashed_at_any_write_keeps_an_acknowledged_value() {
    // Four keys: two pages, the victim's the second. Delete-then-put took
    // 57 writes here and lost the key at 36 of them.
    for volatile_cache in [true, false] {
        let (writes, pages, wrong) = overwrite_crashed_everywhere(4, volatile_cache);
        assert_eq!((writes, pages), (OVERWRITE_WRITES, 2));
        assert!(
            wrong.is_empty(),
            "volatile_cache={volatile_cache}, {writes} crash points: {wrong:#?}"
        );
    }
}

#[test]
fn an_index_spanning_blocks_does_not_tear() {
    // Thirteen keys over all seven pages. As text, `key02,6,64` became
    // `key02,17,70`: every later line shifted a byte, three blocks changed,
    // and replay of a healthy stripe's intent record (parity, not data)
    // left each of them old *or* new. As a fixed-width record the new
    // extent changes 16 bytes of the victim's page and nothing else: the
    // same number of writes as with four keys, and no mix to parse.
    for volatile_cache in [true, false] {
        let (writes, pages, wrong) = overwrite_crashed_everywhere(13, volatile_cache);
        assert_eq!((writes, pages), (OVERWRITE_WRITES, META));
        assert!(
            wrong.is_empty(),
            "volatile_cache={volatile_cache}, {writes} crash points: {wrong:#?}"
        );
    }
}
