//! The index region is input from the medium: whatever bytes a torn
//! write, rot beneath the checksums or a hostile disk leaves in its
//! pages, `ObjectStore::open` answers `Ok` or `StoreError::BadIndex` — it
//! never panics, and a store it did open never reads outside the array or
//! sizes a buffer from a length it has not checked against the capacity.

use dcode_array::{ObjectStore, ResilientArray, RotationScheme, StoreError};
use dcode_core::dcode::dcode;
use dcode_faults::MemBackend;
use proptest::prelude::*;

const BLOCK: usize = 64;
const META: usize = 4;
const REGION: usize = META * BLOCK;
const MAGIC: &[u8] = b"DCI\x01";
/// Magic and count; then `name_len u32 · name · start u64 · len u64`.
const HEADER: usize = 8;

type Store = ObjectStore<ResilientArray<MemBackend>>;

fn array() -> ResilientArray<MemBackend> {
    // D-Code p = 5, 3 stripes: 45 elements, objects live in [4, 45).
    ResilientArray::new(dcode(5).unwrap(), BLOCK, 3, RotationScheme::PerStripe)
}

/// Open a store over an array whose index region holds `image`, cut or
/// zero-padded to the region.
fn open_over(image: &[u8]) -> Result<Store, StoreError> {
    let mut region = image.to_vec();
    region.resize(REGION, 0);
    let mut array = array();
    array.write(0, &region).unwrap();
    ObjectStore::open(array, META)
}

/// What every outcome of `open` must satisfy. An opened store is used:
/// each listed object is fetched (inside the array, exactly its listed
/// length) and a put allocates around the extents the index named.
fn judge(image: &[u8], outcome: Result<Store, StoreError>) {
    match outcome {
        Err(StoreError::BadIndex(_)) => {}
        Err(other) => panic!("{image:02x?}: open failed with {other}, not BadIndex"),
        Ok(mut store) => {
            let capacity_bytes = array().capacity_elements() * BLOCK;
            for (name, len) in store.list() {
                assert!(
                    len <= capacity_bytes,
                    "{image:02x?}: '{name}' lists {len} bytes"
                );
                let bytes = store
                    .get(&name)
                    .unwrap_or_else(|e| panic!("{image:02x?}: {e}"));
                assert_eq!(bytes.len(), len, "{image:02x?}: '{name}'");
            }
            match store.upsert("probe", &[0xAB; BLOCK + 1]) {
                Ok(()) => assert_eq!(store.get("probe").unwrap(), [0xAB; BLOCK + 1]),
                Err(StoreError::NoSpace { .. }) => {}
                Err(other) => panic!("{image:02x?}: put after open: {other}"),
            }
        }
    }
}

#[derive(Clone, Debug)]
struct Record {
    name: Vec<u8>,
    start: u64,
    len: u64,
}

/// A well-formed index of `objects` objects laid out back to back, two
/// records a page (24 bytes each: a page keeps 8 bytes of padding).
fn valid_index(objects: usize, seed: u64) -> Vec<Vec<Record>> {
    let mut start = META as u64;
    let records: Vec<Record> = (0..objects)
        .map(|i| {
            let len = 1 + seed.rotate_left(i as u32 * 7) % 150;
            let record = Record {
                name: format!("obj{i}").into_bytes(),
                start,
                len,
            };
            start += len.div_ceil(BLOCK as u64);
            record
        })
        .collect();
    let mut pages: Vec<Vec<Record>> = records.chunks(2).map(<[Record]>::to_vec).collect();
    pages.resize(META, Vec::new());
    pages
}

fn render(pages: &[Vec<Record>]) -> Vec<u8> {
    let mut region = Vec::new();
    for (i, records) in pages.iter().enumerate() {
        region.extend_from_slice(MAGIC);
        region.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for record in records {
            region.extend_from_slice(&(record.name.len() as u32).to_le_bytes());
            region.extend_from_slice(&record.name);
            region.extend_from_slice(&record.start.to_le_bytes());
            region.extend_from_slice(&record.len.to_le_bytes());
        }
        assert!(region.len() <= (i + 1) * BLOCK, "page {i} overflows");
        region.resize((i + 1) * BLOCK, 0);
    }
    region
}

/// What a valid index lists, in the order `list` gives it.
fn listing(pages: &[Vec<Record>]) -> Vec<(String, usize)> {
    let mut listed: Vec<(String, usize)> = pages
        .iter()
        .flatten()
        .map(|r| (String::from_utf8(r.name.clone()).unwrap(), r.len as usize))
        .collect();
    listed.sort();
    listed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Region bytes with no structure at all; pages that carry the magic
    /// and a small count, so the record parser runs over arbitrary bytes;
    /// and each of them after valid pages, which is what rot in one page
    /// looks like.
    #[test]
    fn arbitrary_bytes_open_or_are_refused(
            raw in prop::collection::vec(any::<u8>(), 0..=REGION),
            count in 0u32..4,
            prefix in 0usize..7,
            seed in any::<u64>()) {
        let mut headed = raw.clone();
        headed.resize(REGION, 0);
        for page in headed.chunks_mut(BLOCK) {
            page[..MAGIC.len()].copy_from_slice(MAGIC);
            page[MAGIC.len()..HEADER].copy_from_slice(&count.to_le_bytes());
        }
        for bytes in [raw, headed] {
            judge(&bytes, open_over(&bytes));
            let mut rotted = render(&valid_index(prefix, seed));
            let keep = prefix.div_ceil(2) * BLOCK;
            rotted.truncate(keep);
            rotted.extend_from_slice(&bytes);
            rotted.truncate(REGION);
            judge(&rotted, open_over(&rotted));
        }
    }

    /// One structural edit of a valid index. Every edit but the last two
    /// must be refused; records in another order, another page or one
    /// fewer are still a well-formed index.
    #[test]
    fn one_edit_of_a_valid_index_opens_or_is_refused(
            objects in 3usize..8,
            edit in 0usize..14,
            pick in any::<u64>(),
            seed in any::<u64>()) {
        let mut pages = valid_index(objects, seed);
        let at = pick as usize % objects;
        let (page, slot) = (at / 2, at % 2);
        let capacity = array().capacity_elements() as u64;
        let mut expect = None;
        let image = match edit {
            // A page without the magic (one flipped bit of it is enough).
            0 => {
                let mut image = render(&pages);
                let target = pick as usize % META;
                image[target * BLOCK + pick as usize % MAGIC.len()] ^= 1 << (pick % 8);
                image
            }
            // A count larger than the records that follow.
            1 => {
                let mut image = render(&pages);
                let count = [pages[page].len() as u32 + 1 + (pick % 3) as u32, u32::MAX];
                image[page * BLOCK + MAGIC.len()..page * BLOCK + HEADER]
                    .copy_from_slice(&count[(pick >> 8) as usize % 2].to_le_bytes());
                image
            }
            // A name length that runs past the page.
            2 => {
                let mut image = render(&pages);
                let name_len = [(BLOCK - HEADER) as u32 + (pick % 200) as u32, u32::MAX];
                image[page * BLOCK + HEADER..page * BLOCK + HEADER + 4]
                    .copy_from_slice(&name_len[(pick >> 8) as usize % 2].to_le_bytes());
                image
            }
            // A name cut inside a multi-byte character; an empty name.
            3 => { pages[page][slot].name = b"ob\xe2\x82".to_vec(); render(&pages) }
            4 => { pages[page][slot].name.clear(); render(&pages) }
            // Numbers no usize or no sum holds.
            5 => { pages[page][slot].start = u64::MAX - pick % 3; render(&pages) }
            6 => { pages[page][slot].len = u64::MAX - pick % BLOCK as u64; render(&pages) }
            // Extent inside the index region, past the array.
            7 => { pages[page][slot].start = pick % META as u64; render(&pages) }
            8 => {
                pages[page][slot].start = capacity - pick % 2;
                pages[page][slot].len = 2 * BLOCK as u64;
                render(&pages)
            }
            // One name in two pages.
            9 => {
                let other = (page + 1) % objects.div_ceil(2);
                pages[other][0].name = pages[page][slot].name.clone();
                render(&pages)
            }
            // Two extents overlap: a later object starts inside an earlier one.
            10 => {
                let (first, second) = (at.min(objects - 2), at.min(objects - 2) + 1);
                pages[first / 2][first % 2].len = 2 * BLOCK as u64 + 1;
                pages[second / 2][second % 2].start = pages[first / 2][first % 2].start + 1;
                render(&pages)
            }
            // A byte after the last record.
            11 => {
                let mut image = render(&pages);
                let used = HEADER + 24 * pages[page].len();
                image[page * BLOCK + used + pick as usize % (BLOCK - used)] = 1 + (pick >> 8) as u8 % 255;
                image
            }
            // Any page may hold any record, in any order.
            12 => {
                let moved = pages[page].remove(slot);
                pages[META - 1].insert(0, moved);
                pages[0].reverse();
                expect = Some(listing(&pages));
                render(&pages)
            }
            // One record fewer.
            _ => {
                pages[page].remove(slot);
                expect = Some(listing(&pages));
                render(&pages)
            }
        };
        let outcome = open_over(&image);
        match &expect {
            None => prop_assert!(
                matches!(outcome, Err(StoreError::BadIndex(_))),
                "edit {edit} of {image:02x?} was not refused"
            ),
            Some(expect) => {
                let opened = outcome.as_ref().map(ObjectStore::list);
                prop_assert!(
                    opened.as_ref().is_ok_and(|listed| listed == expect),
                    "edit {edit}: expected {expect:?}"
                );
            }
        }
        judge(&image, outcome);
    }
}
