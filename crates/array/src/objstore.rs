//! A small object store on top of a RAID-6 array — the kind of
//! application the paper's introduction motivates (cloud/object storage on
//! dependable arrays). Demonstrates that the array layer is a real block
//! device: the store's own metadata lives *inside* the array (first
//! elements of the address space), so a store can be re-opened from a
//! (possibly degraded) array alone.
//!
//! The store is written against [`ElementIo`]: it runs on a
//! [`ResilientArray`](crate::ResilientArray) — retries, checksums and
//! hot-spare rebuild underneath — or on a wrapper that counts or times
//! the array's element I/O.
//!
//! Design: a fixed metadata region at the front holds a text index
//! (`name,start,len_bytes` per line); objects are allocated first-fit on
//! element ranges after it, and every byte path goes through RAID-6
//! encode/recover. There is no compaction.
//!
//! # What a mutation guarantees across a crash
//!
//! Over an array whose `write_elements` returns only once the write is
//! durable (a journaled [`ResilientArray`](crate::ResilientArray)), every
//! mutation is one index rewrite, and the index on the medium never names
//! bytes that were not written first:
//!
//! * [`put`](ObjectStore::put) and [`upsert`](ObjectStore::upsert) write
//!   the value into a free extent, then rewrite the index once. A crash
//!   before the rewrite lands leaves the previous index: a new key is
//!   absent, an overwritten key still reads its previous value, whose
//!   extent was never touched. After it, the key reads the new value.
//!   There is no instant at which an acknowledged key is unnamed.
//! * [`delete`](ObjectStore::delete) rewrites the index without the
//!   entry: the key reads its value or is absent, never anything else.
//! * A mutation the store or the array refuses ([`StoreError::NoSpace`]
//!   for the value or for the index, an array beyond its fault
//!   tolerance) leaves memory and medium agreeing on the state before it.
//!
//! **The space rule.** An overwrite is copy-on-write, so it needs a free
//! extent of the new value's size *while the old value is still
//! allocated*; a store without one returns [`StoreError::NoSpace`] and the
//! old value stays readable. There is no in-place fallback — it would put
//! back the window in which a crash loses an acknowledged value. The old
//! extent is free as soon as the overwrite returns.
//!
//! **What is still open.** The index rewrite covers the whole region, and
//! a crash inside it leaves each index *element* old or new (replay of a
//! healthy stripe's intent record restores parity, not data). An index
//! whose text spans several elements can therefore tear when a line
//! changes width. [`open`](ObjectStore::open) refuses a tear that does
//! not parse or validate ([`StoreError::BadIndex`]), but one that does
//! is taken at its word — `tests/store_crash.rs` keeps the reproducer
//! (ROADMAP item 1: block-aligned records). The guarantees above are
//! exact while the index text fits one element.

use crate::device::{ArrayError, ElementIo};
use crate::resilient::JournalMutation;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying array failure (out of range, too many failed disks…).
    Array(ArrayError),
    /// No contiguous free range large enough.
    NoSpace {
        /// Elements requested.
        needed: usize,
    },
    /// Object name not present.
    NotFound(String),
    /// Object name already present.
    Exists(String),
    /// Names may not contain commas or newlines (index format).
    BadName(String),
    /// The on-array index is malformed (corrupted or not a store).
    BadIndex(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Array(e) => write!(f, "array error: {e}"),
            StoreError::NoSpace { needed } => write!(f, "no space for {needed} elements"),
            StoreError::NotFound(n) => write!(f, "object '{n}' not found"),
            StoreError::Exists(n) => write!(f, "object '{n}' already exists"),
            StoreError::BadName(n) => write!(f, "invalid object name '{n}'"),
            StoreError::BadIndex(why) => write!(f, "corrupt index: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ArrayError> for StoreError {
    fn from(e: ArrayError) -> Self {
        StoreError::Array(e)
    }
}

/// An object store over any RAID-6 array implementing [`ElementIo`].
pub struct ObjectStore<D: ElementIo> {
    array: D,
    /// Elements reserved for the index at the front of the address space.
    meta_elements: usize,
    /// name → (start element, byte length).
    index: BTreeMap<String, (usize, usize)>,
    /// Planted ordering bug (crash-sweep self-test only).
    mutation: Option<JournalMutation>,
}

impl<D: ElementIo> ObjectStore<D> {
    /// Format a fresh store on `array`, reserving `meta_elements` elements
    /// for the index.
    pub fn format(mut array: D, meta_elements: usize) -> Result<Self, StoreError> {
        assert!(meta_elements >= 1);
        assert!(meta_elements < array.capacity_elements());
        let block = array.element_size();
        array.write_elements(0, &vec![0u8; meta_elements * block])?;
        let mut store = ObjectStore {
            array,
            meta_elements,
            index: BTreeMap::new(),
            mutation: None,
        };
        store.persist_index()?;
        Ok(store)
    }

    /// Re-open a store from an existing array (reads the on-array index,
    /// reconstructing through failures if needed). The index is input from
    /// the medium, so nothing in it is trusted: bytes that are not UTF-8
    /// (NUL padding is), a line that does not parse, an extent that starts
    /// inside the index region or ends past the array, a name listed twice
    /// and two extents that overlap are each [`StoreError::BadIndex`].
    pub fn open(mut array: D, meta_elements: usize) -> Result<Self, StoreError> {
        let raw = array.read_elements(0, meta_elements)?;
        let text = std::str::from_utf8(&raw)
            .map_err(|e| StoreError::BadIndex(format!("not UTF-8 at byte {}", e.valid_up_to())))?;
        let capacity = array.capacity_elements();
        let mut store = ObjectStore {
            array,
            meta_elements,
            index: BTreeMap::new(),
            mutation: None,
        };
        for line in text.lines() {
            let line = line.trim_end_matches('\0').trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, ',');
            let (Some(name), Some(start), Some(len)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(StoreError::BadIndex(format!("line '{line}'")));
            };
            let start: usize = start
                .parse()
                .map_err(|_| StoreError::BadIndex(format!("start '{start}'")))?;
            let len: usize = len
                .parse()
                .map_err(|_| StoreError::BadIndex(format!("len '{len}'")))?;
            let end = start.checked_add(store.elements_for(len));
            if start < meta_elements || !end.is_some_and(|end| end <= capacity) {
                return Err(StoreError::BadIndex(format!(
                    "extent of '{name}' outside elements [{meta_elements}, {capacity})"
                )));
            }
            if store.index.insert(name.to_string(), (start, len)).is_some() {
                return Err(StoreError::BadIndex(format!("name '{name}' listed twice")));
            }
        }
        let mut extents: Vec<(usize, usize)> = store
            .index
            .values()
            .map(|&(start, len)| (start, start + store.elements_for(len)))
            .collect();
        extents.sort_unstable();
        if let Some(pair) = extents.windows(2).find(|pair| pair[1].0 < pair[0].1) {
            return Err(StoreError::BadIndex(format!(
                "extents at elements {} and {} overlap",
                pair[0].0, pair[1].0
            )));
        }
        Ok(store)
    }

    /// The underlying array (for failure injection in tests/demos).
    pub fn array_mut(&mut self) -> &mut D {
        &mut self.array
    }

    /// The underlying array, read-only (stats snapshots from a server's
    /// metrics path, which must not perturb disk state).
    pub fn array(&self) -> &D {
        &self.array
    }

    /// Plant (or clear) a deliberate ordering bug. Harness self-test only:
    /// the crash sweep runs once with [`JournalMutation::IndexBeforeData`]
    /// and asserts that it *catches* an index entry over unwritten bytes.
    pub fn set_mutation(&mut self, mutation: Option<JournalMutation>) {
        self.mutation = mutation;
    }

    /// Whether an object with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    fn block_size(&self) -> usize {
        self.array.element_size()
    }

    fn elements_for(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.block_size()).max(1)
    }

    fn persist_index(&mut self) -> Result<(), StoreError> {
        let mut text = String::new();
        for (name, (start, len)) in &self.index {
            text.push_str(&format!("{name},{start},{len}\n"));
        }
        let cap = self.meta_elements * self.block_size();
        if text.len() > cap {
            return Err(StoreError::NoSpace {
                needed: self.elements_for(text.len()) - self.meta_elements,
            });
        }
        let mut buf = text.into_bytes();
        buf.resize(cap, 0);
        self.array.write_elements(0, &buf)?;
        Ok(())
    }

    /// First-fit allocation after the metadata region.
    fn allocate(&self, elements: usize) -> Result<usize, StoreError> {
        let mut used: Vec<(usize, usize)> = self
            .index
            .values()
            .map(|&(start, len)| (start, self.elements_for(len)))
            .collect();
        used.sort_unstable();
        let mut cursor = self.meta_elements;
        for (start, len) in used {
            if start >= cursor + elements {
                break;
            }
            cursor = cursor.max(start + len);
        }
        if cursor + elements <= self.array.capacity_elements() {
            Ok(cursor)
        } else {
            Err(StoreError::NoSpace { needed: elements })
        }
    }

    /// Store an object under a name the store does not hold yet;
    /// [`StoreError::Exists`] otherwise (an archive's semantics — a
    /// key-value front end wants [`upsert`](ObjectStore::upsert)).
    pub fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        if self.index.contains_key(name) {
            return Err(StoreError::Exists(name.to_string()));
        }
        self.upsert(name, bytes)
    }

    /// Store an object, replacing any existing object of the same name
    /// (the server's `put` semantics). Copy-on-write: the new extent is
    /// allocated while the index still holds the old one — so first-fit
    /// cannot hand the old one out — and written before the one index
    /// rewrite that names it. The durable index therefore names the old
    /// extent, intact, or the new one, fully written, at every instant;
    /// an overwrite that has no room for both returns
    /// [`StoreError::NoSpace`] and changes nothing.
    pub fn upsert(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        if name.is_empty() || name.contains(',') || name.contains('\n') {
            return Err(StoreError::BadName(name.to_string()));
        }
        let elements = self.elements_for(bytes.len());
        let start = self.allocate(elements)?;
        let mut padded = bytes.to_vec();
        padded.resize(elements * self.block_size(), 0);
        // Planted bug for the harness self-test: the index names the new
        // extent before its bytes are on the medium.
        let index_first = self.mutation == Some(JournalMutation::IndexBeforeData);
        if !index_first {
            self.array.write_elements(start, &padded)?;
        }
        let previous = self.index.insert(name.to_string(), (start, bytes.len()));
        // The medium keeps the old index when the rewrite fails (index at
        // capacity, array error), so memory must too.
        let persisted = self.persist_index();
        if persisted.is_err() {
            match previous {
                Some(entry) => self.index.insert(name.to_string(), entry),
                None => self.index.remove(name),
            };
        } else if index_first {
            self.array.write_elements(start, &padded)?;
        }
        persisted
    }

    /// Fetch an object's bytes (works while degraded). Takes `&mut self`:
    /// a resilient read may retry, repair, and transition disk states.
    pub fn get(&mut self, name: &str) -> Result<Vec<u8>, StoreError> {
        let &(start, len) = self
            .index
            .get(name)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))?;
        let count = self.elements_for(len);
        let mut bytes = self.array.read_elements(start, count)?;
        bytes.truncate(len);
        Ok(bytes)
    }

    /// Delete an object (space becomes reusable).
    pub fn delete(&mut self, name: &str) -> Result<(), StoreError> {
        let Some(entry) = self.index.remove(name) else {
            return Err(StoreError::NotFound(name.to_string()));
        };
        let persisted = self.persist_index();
        if persisted.is_err() {
            self.index.insert(name.to_string(), entry);
        }
        persisted
    }

    /// List object names and byte sizes.
    pub fn list(&self) -> Vec<(String, usize)> {
        self.index
            .iter()
            .map(|(n, &(_, len))| (n.clone(), len))
            .collect()
    }

    /// Number of objects resident (`list().len()` without cloning a name).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no object.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::ResilientArray;
    use crate::rotation::RotationScheme;
    use dcode_core::dcode::dcode;
    use dcode_faults::MemBackend;

    type MemArray = ResilientArray<MemBackend>;
    type MemStore = ObjectStore<MemArray>;

    fn new_array() -> MemArray {
        ResilientArray::new(dcode(7).unwrap(), 64, 8, RotationScheme::PerStripe)
    }

    fn new_store() -> MemStore {
        ObjectStore::format(new_array(), 4).unwrap()
    }

    /// Take the array out from under a live store and open it cold.
    fn reopen(mut s: MemStore) -> Result<MemStore, StoreError> {
        let array = std::mem::replace(s.array_mut(), new_array());
        ObjectStore::open(array, 4)
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut s = new_store();
        let a: Vec<u8> = (0..500u32).map(|i| i as u8).collect();
        let b: Vec<u8> = (0..1234u32).map(|i| (i * 3) as u8).collect();
        s.put("a", &a).unwrap();
        s.put("b", &b).unwrap();
        assert_eq!(s.get("a").unwrap(), a);
        assert_eq!(s.get("b").unwrap(), b);
        assert_eq!(s.list().len(), 2);
        s.delete("a").unwrap();
        assert!(matches!(s.get("a"), Err(StoreError::NotFound(_))));
        // Freed space is reusable.
        s.put("c", &a).unwrap();
        assert_eq!(s.get("c").unwrap(), a);
        assert_eq!(s.get("b").unwrap(), b);
    }

    #[test]
    fn survives_double_failure_and_reopen() {
        let mut s = new_store();
        let payload: Vec<u8> = (0..3000u32).map(|i| (i * 7) as u8).collect();
        s.put("precious", &payload).unwrap();

        s.array_mut().fail_disk(2).unwrap();
        s.array_mut().fail_disk(5).unwrap();
        // Reads still work while degraded.
        assert_eq!(s.get("precious").unwrap(), payload);

        // A brand-new store instance can re-open from the degraded array
        // alone (the index lives in the array).
        let mut reopened = reopen(s).unwrap();
        assert_eq!(reopened.get("precious").unwrap(), payload);
    }

    #[test]
    fn allocation_exhaustion_reported() {
        let mut s = new_store();
        let cap = 64 * (8 * dcode(7).unwrap().data_len() - 4);
        let too_big = vec![0u8; cap + 64];
        assert!(matches!(
            s.put("big", &too_big),
            Err(StoreError::NoSpace { .. })
        ));
        // A fitting object still works afterwards.
        s.put("ok", &[1, 2, 3]).unwrap();
        assert_eq!(s.get("ok").unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn failed_index_rewrite_leaves_memory_and_medium_agreeing() {
        let mut s = new_store();
        // Fill the 4 × 64-byte index region until a put no longer fits.
        let mut stored = 0;
        let refused = loop {
            let name = format!("object-with-a-long-name-{stored:03}");
            match s.put(&name, &[stored as u8; 10]) {
                Ok(()) => stored += 1,
                Err(StoreError::NoSpace { .. }) => break name,
                Err(e) => panic!("unexpected {e}"),
            }
        };
        assert!(stored > 0);
        assert!(!s.contains(&refused), "refused put stayed in the index");
        assert!(matches!(s.get(&refused), Err(StoreError::NotFound(_))));
        // The live store and a cold re-open of the same array list the
        // same objects.
        let live = s.list();
        assert_eq!(live.len(), stored);
        assert_eq!(reopen(s).unwrap().list(), live);
    }

    #[test]
    fn failed_delete_keeps_the_entry() {
        let mut s = new_store();
        s.put("kept", &[7; 100]).unwrap();
        // Three lost columns are beyond RAID-6: the index rewrite cannot
        // reconstruct the stripe it lands in.
        for slot in 0..3 {
            s.array_mut().fail_disk(slot).unwrap();
        }
        assert!(matches!(s.delete("kept"), Err(StoreError::Array(_))));
        assert!(s.contains("kept"), "failed delete dropped the entry");
    }

    #[test]
    fn bad_names_rejected() {
        let mut s = new_store();
        assert!(matches!(s.put("", &[1]), Err(StoreError::BadName(_))));
        assert!(matches!(s.put("a,b", &[1]), Err(StoreError::BadName(_))));
        assert!(matches!(s.put("a\nb", &[1]), Err(StoreError::BadName(_))));
    }

    #[test]
    fn duplicate_put_rejected() {
        let mut s = new_store();
        s.put("x", &[1]).unwrap();
        assert!(matches!(s.put("x", &[2]), Err(StoreError::Exists(_))));
    }

    #[test]
    fn upsert_replaces_and_creates() {
        let mut s = new_store();
        s.upsert("k", &[1, 2, 3]).unwrap(); // create
        assert_eq!(s.get("k").unwrap(), vec![1, 2, 3]);
        let bigger: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        s.upsert("k", &bigger).unwrap(); // replace with a larger value
        assert_eq!(s.get("k").unwrap(), bigger);
        assert!(s.contains("k"));
        assert_eq!(s.list().len(), 1);
    }

    /// `count` objects `obj0..`, each `elements` elements of its own byte.
    fn fill(s: &mut MemStore, count: usize, elements: usize) {
        for i in 0..count {
            s.put(&format!("obj{i}"), &vec![i as u8; elements * 64])
                .unwrap();
        }
    }

    #[test]
    fn overwrite_without_room_for_both_versions_is_no_space_and_keeps_the_old_value() {
        // 280 elements less 4 of index: six 46-element objects fill it.
        let mut s = new_store();
        fill(&mut s, 6, 46);
        let newer = vec![0xEE; 46 * 64];
        assert!(matches!(
            s.upsert("obj0", &newer),
            Err(StoreError::NoSpace { needed: 46 })
        ));
        assert_eq!(s.get("obj0").unwrap(), vec![0u8; 46 * 64]);
        // A smaller value has no hole either: the rule is about free
        // space, not about the old extent's size.
        assert!(matches!(
            s.upsert("obj0", &[1]),
            Err(StoreError::NoSpace { needed: 1 })
        ));
        let live = s.list();
        let mut reopened = reopen(s).unwrap();
        assert_eq!(reopened.list(), live);
        assert_eq!(reopened.get("obj0").unwrap(), vec![0u8; 46 * 64]);
        // Deleting any object makes the room.
        reopened.delete("obj5").unwrap();
        reopened.upsert("obj0", &newer).unwrap();
        assert_eq!(reopened.get("obj0").unwrap(), newer);
    }

    #[test]
    fn overwrite_takes_the_one_free_extent_and_the_next_reuses_the_hole() {
        let mut s = new_store();
        fill(&mut s, 5, 46); // elements [4, 234); one 46-element extent free
        let first = vec![0xA1; 46 * 64];
        s.upsert("obj0", &first).unwrap();
        assert_eq!(s.get("obj0").unwrap(), first);
        // The new version went to the free extent, the old one stayed put
        // until the index flipped — and is the only hole now.
        assert_eq!(s.array_mut().read(234, 1).unwrap(), [0xA1; 64]);
        assert_eq!(s.array_mut().read(4, 1).unwrap(), [0u8; 64]);
        let second = vec![0xB2; 46 * 64];
        s.upsert("obj1", &second).unwrap();
        assert_eq!(s.array_mut().read(4, 1).unwrap(), [0xB2; 64]);
        let mut reopened = reopen(s).unwrap();
        assert_eq!(reopened.get("obj0").unwrap(), first);
        assert_eq!(reopened.get("obj1").unwrap(), second);
        assert_eq!(reopened.get("obj2").unwrap(), vec![2u8; 46 * 64]);
    }

    #[test]
    fn failed_overwrite_puts_the_previous_entry_back() {
        let mut s = new_store();
        s.put("kept", &[7; 100]).unwrap();
        // Fill the 256-byte index to the last byte.
        let filler = "f".repeat(4 * 64 - "kept,4,100\n".len() - ",6,1\n".len());
        s.put(&filler, &[1]).unwrap();
        // `kept,7,1000` is one byte longer than `kept,4,100`: the new
        // extent is written, the index rewrite refuses, and the entry
        // that names the old extent comes back.
        assert!(matches!(
            s.upsert("kept", &[9; 1000]),
            Err(StoreError::NoSpace { .. })
        ));
        assert_eq!(s.get("kept").unwrap(), [7; 100]);
        let live = s.list();
        let mut reopened = reopen(s).unwrap();
        assert_eq!(reopened.list(), live);
        assert_eq!(reopened.get("kept").unwrap(), [7; 100]);
        // A same-width overwrite still fits.
        reopened.upsert("kept", &[9; 999]).unwrap();
        assert_eq!(reopened.get("kept").unwrap(), [9; 999]);
    }

    #[test]
    fn index_on_the_medium_is_the_line_per_object_csv() {
        // The format every earlier store wrote: `name,start,len\n` per
        // object in name order, NUL-padded to the region.
        let mut s = new_store();
        s.put("b", &[2; 70]).unwrap();
        s.put("a", &[1; 10]).unwrap();
        s.upsert("b", &[3; 130]).unwrap();
        let mut expect = b"a,6,10\nb,7,130\n".to_vec();
        expect.resize(4 * 64, 0);
        assert_eq!(s.array_mut().read(0, 4).unwrap(), expect);
        // And a region holding an image written by hand in that format
        // opens, with the extents where it says.
        let mut s = new_store();
        let mut image = b"first,4,64\nsecond,9,3\n".to_vec();
        image.resize(4 * 64, 0);
        s.array_mut().write(0, &image).unwrap();
        s.array_mut().write(4, &[0x11; 64]).unwrap();
        s.array_mut().write(9, &[0x22; 64]).unwrap();
        let mut opened = reopen(s).unwrap();
        assert_eq!(opened.get("first").unwrap(), [0x11; 64]);
        assert_eq!(opened.get("second").unwrap(), [0x22; 3]);
        opened.upsert("second", &[0x33; 65]).unwrap();
        let mut expect = b"first,4,64\nsecond,5,65\n".to_vec();
        expect.resize(4 * 64, 0);
        assert_eq!(opened.array_mut().read(0, 4).unwrap(), expect);
    }

    #[test]
    fn len_counts_what_list_lists_at_every_step() {
        fn agree(s: &MemStore, expect: usize) {
            assert_eq!(s.len(), s.list().len());
            assert_eq!(s.len(), expect);
            assert_eq!(s.is_empty(), expect == 0);
        }
        let mut s = new_store();
        agree(&s, 0);
        s.put("a", &[1; 100]).unwrap();
        agree(&s, 1);
        s.upsert("b", &[2; 200]).unwrap();
        agree(&s, 2);
        s.upsert("a", &[3; 300]).unwrap(); // existing: replaced, not added
        agree(&s, 2);
        s.delete("b").unwrap();
        agree(&s, 1);
        agree(&reopen(s).unwrap(), 1);
    }

    #[test]
    fn open_rejects_an_index_the_writer_never_wrote() {
        // What a torn write, bit rot past the checksums or a hostile medium
        // can leave in the index region. 4 index elements of 64 bytes; an
        // object's extent must lie inside elements [4, capacity).
        let capacity = new_array().capacity_elements();
        let past_end = format!("a,{},65\n", capacity - 1);
        let malformed: [(&str, &[u8]); 8] = [
            ("not UTF-8", b"a,4,10\n\xff\xfe,6,10\n"),
            ("UTF-8 cut mid-character", b"a,4,10\n\xe2\x82,6,10\n"),
            ("starts inside the index region", b"a,3,10\n"),
            ("ends past capacity", past_end.as_bytes()),
            ("end overflows", b"a,18446744073709551615,10\n"),
            ("length overflows", b"a,4,18446744073709551615\n"),
            ("duplicate name", b"a,4,10\nb,5,10\na,6,10\n"),
            ("overlapping extents", b"a,4,100\nb,5,10\n"),
        ];
        for (what, index) in malformed {
            let mut s = new_store();
            let mut region = index.to_vec();
            region.resize(4 * 64, 0);
            s.array_mut().write(0, &region).unwrap();
            match reopen(s) {
                Err(StoreError::BadIndex(_)) => {}
                Err(e) => panic!("{what}: expected BadIndex, got {e}"),
                Ok(opened) => panic!("{what}: opened with {:?}", opened.list()),
            }
        }
        // The same route with a well-formed index (NUL padding included)
        // opens, and lists exactly what was written.
        let mut s = new_store();
        let mut region = b"a,4,100\nb,6,10\n".to_vec();
        region.resize(4 * 64, 0);
        s.array_mut().write(0, &region).unwrap();
        let listed = reopen(s).unwrap().list();
        assert_eq!(listed, [("a".to_string(), 100), ("b".to_string(), 10)]);
    }
}
