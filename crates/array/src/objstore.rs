//! A small object store on top of a RAID-6 array — the kind of
//! application the paper's introduction motivates (cloud/object storage on
//! dependable arrays). Demonstrates that the array layer is a real block
//! device: the store's own metadata lives *inside* the array (first
//! elements of the address space), so a store can be re-opened from a
//! (possibly degraded) array alone.
//!
//! The store is generic over [`ElementIo`], so it runs unchanged on the
//! in-memory [`Array`] or on a backend-driven
//! [`ResilientArray`](crate::ResilientArray) with retries, checksums, and
//! hot-spare rebuild underneath.
//!
//! Design: a fixed metadata region at the front holds a text index
//! (`name,start,len_bytes` per line); objects are allocated first-fit on
//! element ranges after it. Deliberately simple — no compaction, no
//! transactions — but every byte path goes through RAID-6 encode/recover.

use crate::array::{Array, ArrayError};
use crate::device::ElementIo;
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
pub struct ObjectStore<D: ElementIo = Array> {
    array: D,
    /// Elements reserved for the index at the front of the address space.
    meta_elements: usize,
    /// name → (start element, byte length).
    index: BTreeMap<String, (usize, usize)>,
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
        };
        store.persist_index()?;
        Ok(store)
    }

    /// Re-open a store from an existing array (reads the on-array index,
    /// reconstructing through failures if needed).
    pub fn open(mut array: D, meta_elements: usize) -> Result<Self, StoreError> {
        let raw = array.read_elements(0, meta_elements)?;
        let text = String::from_utf8_lossy(&raw);
        let mut index = BTreeMap::new();
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
            index.insert(name.to_string(), (start, len));
        }
        Ok(ObjectStore {
            array,
            meta_elements,
            index,
        })
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

    /// Whether an object with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Store an object, replacing any existing object of the same name
    /// (the server's `put` semantics — [`ObjectStore::put`] rejects
    /// duplicates, which is right for an archive CLI but wrong for a
    /// key-value front end).
    pub fn upsert(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        if self.index.contains_key(name) {
            self.delete(name)?;
        }
        self.put(name, bytes)
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

    /// Store an object.
    pub fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        if name.is_empty() || name.contains(',') || name.contains('\n') {
            return Err(StoreError::BadName(name.to_string()));
        }
        if self.index.contains_key(name) {
            return Err(StoreError::Exists(name.to_string()));
        }
        let elements = self.elements_for(bytes.len());
        let start = self.allocate(elements)?;
        let block = self.block_size();
        let mut padded = bytes.to_vec();
        padded.resize(elements * block, 0);
        self.array.write_elements(start, &padded)?;
        self.index.insert(name.to_string(), (start, bytes.len()));
        // The medium keeps the old index when the rewrite fails (index at
        // capacity, array error), so memory must too.
        let persisted = self.persist_index();
        if persisted.is_err() {
            self.index.remove(name);
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
    use crate::rotation::RotationScheme;
    use dcode_core::dcode::dcode;

    fn new_store() -> ObjectStore {
        let array = Array::new(dcode(7).unwrap(), 64, 8, RotationScheme::PerStripe);
        ObjectStore::format(array, 4).unwrap()
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
        let mut array = Array::new(dcode(7).unwrap(), 64, 8, RotationScheme::PerStripe);
        std::mem::swap(&mut array, s.array_mut());
        let mut reopened = ObjectStore::open(array, 4).unwrap();
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
        let mut array = Array::new(dcode(7).unwrap(), 64, 8, RotationScheme::PerStripe);
        std::mem::swap(&mut array, s.array_mut());
        assert_eq!(ObjectStore::open(array, 4).unwrap().list(), live);
    }

    #[test]
    fn failed_delete_keeps_the_entry() {
        let mut s = new_store();
        s.put("kept", &[7; 100]).unwrap();
        // The in-memory array refuses writes while degraded.
        s.array_mut().fail_disk(0).unwrap();
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

    #[test]
    fn len_counts_what_list_lists_at_every_step() {
        fn agree(s: &ObjectStore, expect: usize) {
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
        let mut array = Array::new(dcode(7).unwrap(), 64, 8, RotationScheme::PerStripe);
        std::mem::swap(&mut array, s.array_mut());
        agree(&ObjectStore::open(array, 4).unwrap(), 1);
    }
}
