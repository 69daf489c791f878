//! The index region is input from the medium: whatever bytes a torn
//! write, rot beneath the checksums or a hostile disk leaves there,
//! `ObjectStore::open` answers `Ok` or `StoreError::BadIndex` — it never
//! panics, and a store it did open never reads outside the array or
//! sizes a buffer from a length it has not checked against the capacity.

use dcode_array::{ObjectStore, ResilientArray, RotationScheme, StoreError};
use dcode_core::dcode::dcode;
use dcode_faults::MemBackend;
use proptest::prelude::*;

const BLOCK: usize = 64;
const META: usize = 4;
const REGION: usize = META * BLOCK;

type Store = ObjectStore<ResilientArray<MemBackend>>;

fn array() -> ResilientArray<MemBackend> {
    // D-Code p = 5, 3 stripes: 45 elements, objects live in [4, 45).
    ResilientArray::new(dcode(5).unwrap(), BLOCK, 3, RotationScheme::PerStripe)
}

/// Open a store over an array whose index region holds `image`, cut or
/// NUL-padded to the region.
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
    let shown = String::from_utf8_lossy(image);
    match outcome {
        Err(StoreError::BadIndex(_)) => {}
        Err(other) => panic!("{shown:?}: open failed with {other}, not BadIndex"),
        Ok(mut store) => {
            let capacity_bytes = array().capacity_elements() * BLOCK;
            for (name, len) in store.list() {
                assert!(
                    len <= capacity_bytes,
                    "{shown:?}: '{name}' lists {len} bytes"
                );
                let bytes = store
                    .get(&name)
                    .unwrap_or_else(|e| panic!("{shown:?}: {e}"));
                assert_eq!(bytes.len(), len, "{shown:?}: '{name}'");
            }
            match store.upsert("probe", &[0xAB; BLOCK + 1]) {
                Ok(()) => assert_eq!(store.get("probe").unwrap(), [0xAB; BLOCK + 1]),
                Err(StoreError::NoSpace { .. }) => {}
                Err(other) => panic!("{shown:?}: put after open: {other}"),
            }
        }
    }
}

/// A well-formed index of `lines` objects laid out back to back.
fn valid_index(lines: usize, seed: u64) -> Vec<(String, usize, usize)> {
    let mut start = META;
    (0..lines)
        .map(|i| {
            let len = 1 + (seed.rotate_left(i as u32 * 7) % 150) as usize;
            let entry = (format!("obj{i}"), start, len);
            start += len.div_ceil(BLOCK);
            entry
        })
        .collect()
}

fn render(index: &[(String, usize, usize)]) -> Vec<u8> {
    index
        .iter()
        .flat_map(|(name, start, len)| format!("{name},{start},{len}\n").into_bytes())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bytes with no structure at all, bytes drawn from the index's own
    /// alphabet (short enough that whole lines parse), and each of them
    /// after a valid prefix, which is what a tear looks like.
    #[test]
    fn arbitrary_bytes_open_or_are_refused(
            raw in prop::collection::vec(any::<u8>(), 0..=REGION),
            texty in prop::collection::vec(
                prop::sample::select(b"ab,,0123456789\n\n\0 \xc3".to_vec()), 0..24),
            prefix in 0usize..4,
            seed in any::<u64>()) {
        for bytes in [raw, texty] {
            judge(&bytes, open_over(&bytes));
            let mut torn = render(&valid_index(prefix, seed));
            torn.extend_from_slice(&bytes);
            torn.truncate(REGION);
            judge(&torn, open_over(&torn));
        }
    }

    /// One structural edit of a valid index. Every edit but the last two
    /// must be refused; a missing final newline and a cut at a line
    /// boundary are still a well-formed index.
    #[test]
    fn one_edit_of_a_valid_index_opens_or_is_refused(
            lines in 2usize..6,
            edit in 0usize..10,
            pick in any::<u64>(),
            seed in any::<u64>()) {
        let mut index = valid_index(lines, seed);
        let at = pick as usize % lines;
        let capacity = array().capacity_elements();
        let mut image = match edit {
            // Extent inside the index region, past the array, overflowing.
            0 => { index[at].1 = pick as usize % META; render(&index) }
            1 => { index[at].1 = capacity - (pick as usize % 2); index[at].2 = 2 * BLOCK; render(&index) }
            2 => { index[at].2 = usize::MAX - (pick as usize % BLOCK); render(&index) }
            3 => { index[at].1 = usize::MAX - (pick as usize % 3); render(&index) }
            // Two extents overlap: a later object starts inside an earlier one.
            4 => {
                let (first, second) = (at.min(lines - 2), at.min(lines - 2) + 1);
                index[first].2 = 2 * BLOCK + 1;
                index[second].1 = index[first].1 + 1;
                render(&index)
            }
            // A line twice.
            5 => { let twice = index[at].clone(); index.push(twice); render(&index) }
            // A comma dropped: a line of two fields.
            6 => {
                let mut text = render(&index);
                let commas: Vec<usize> = (0..text.len()).filter(|&i| text[i] == b',').collect();
                text.remove(commas[pick as usize % commas.len()]);
                text
            }
            // A byte that is not UTF-8.
            7 => {
                let mut text = render(&index);
                let i = pick as usize % text.len();
                text[i] = 0xFF;
                text
            }
            // No trailing newline; a cut at a line boundary.
            8 => { let mut text = render(&index); text.pop(); text }
            _ => render(&index[..at.max(1)]),
        };
        image.truncate(REGION);
        let outcome = open_over(&image);
        if edit <= 7 {
            prop_assert!(
                matches!(outcome, Err(StoreError::BadIndex(_))),
                "edit {edit} of {:?} was not refused",
                String::from_utf8_lossy(&image)
            );
        } else {
            let opened = outcome.as_ref().map(ObjectStore::list);
            let kept = if edit == 8 { &index[..] } else { &index[..at.max(1)] };
            let expect: Vec<(String, usize)> =
                kept.iter().map(|(name, _, len)| (name.clone(), *len)).collect();
            prop_assert!(
                opened.as_ref().is_ok_and(|listed| *listed == expect),
                "edit {edit}: expected {expect:?}"
            );
        }
        judge(&image, outcome);
    }
}
